# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test bench bench-full bench-kernels bench-service bench-experiments experiments examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The paper's exact operating points (1M-event long intervals).
bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Kernel + multi-session fold throughput; the result file is written
# atomically (temp file + rename), so an interrupted run never leaves
# a truncated BENCH_kernels.json behind.
bench-kernels:
	$(PYTHON) -m repro.cli bench -o benchmarks/results/BENCH_kernels.json

# Service load harness: every shipped profile against an embedded
# server, one row each with events/s, latency percentiles, failures
# and a profile digest; writes benchmarks/results/BENCH_service.json.
bench-service:
	$(PYTHON) -m repro.cli loadgen -o benchmarks/results/BENCH_service.json

experiments:
	$(PYTHON) -m repro.experiments.runner all

# Serial vs parallel vs warm-cache suite wall-clock; writes
# benchmarks/results/BENCH_experiments.json.
bench-experiments:
	$(PYTHON) -m repro.experiments.runner bench

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

# Scratch and caches only: benchmarks/results and src/*.egg-info are
# checked in and must survive a clean.
clean:
	rm -rf .pytest_cache .hypothesis build dist
	find . -name __pycache__ -type d -exec rm -rf {} +
	find benchmarks/results -name '.bench-*.json' -delete 2>/dev/null || true
