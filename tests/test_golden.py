"""Golden regression fixtures for the paper's headline workloads.

The parity harness (``tests/test_kernel_parity.py``) proves scalar and
vectorized agree with *each other*; these tests pin both against
checked-in fixtures so an identical-in-both-backends behaviour change
still trips a failure.  Each fixture records per-interval candidate
profiles, cumulative profiler stats, and the per-interval error series
for a scaled-down fig07 (best single-hash) and fig12 (best multi-hash)
run over a deterministic gcc-calibrated stream.

Regenerate intentionally with::

    pytest tests/test_golden.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import (IntervalSpec, best_multi_hash,
                               best_single_hash)
from repro.profiling.session import ProfilingSession
from repro.workloads.benchmarks import benchmark_generator

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Scaled-down operating point: 2K-event intervals at 1 % keep the
#: fixture files small while exercising promotion, eviction and reset.
SPEC = IntervalSpec(length=2_000, threshold=0.01)
INTERVALS = 5
SEED = 13

WORKLOADS = {
    "fig07_single_hash": lambda: best_single_hash(SPEC, total_entries=256),
    "fig12_multi_hash": lambda: best_multi_hash(SPEC, total_entries=256),
}


def run_workload(config):
    """The scalar reference and the default backend (the compiled loop
    when it can be built) over the fixture stream; returns their
    snapshots."""
    session = ProfilingSession([config.with_backend("scalar"), config],
                               keep_profiles=True)
    outcome = session.run(benchmark_generator("gcc", seed=SEED),
                          max_intervals=INTERVALS)
    return {
        name: {
            "intervals": [
                {
                    "index": profile.index,
                    "candidates": sorted(
                        [int(pc), int(value), int(count)]
                        for (pc, value), count
                        in profile.candidates.items()),
                }
                for profile in result.profiles
            ],
            "stats": result.profiler.stats.as_dict(),
            "error_series": [round(point, 12)
                             for point in result.summary.series()],
        }
        for name, result in outcome.results.items()
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_golden_profiles(workload, update_golden):
    observed = run_workload(WORKLOADS[workload]())
    backends = list(observed)
    assert len(backends) == 2
    # Cross-backend agreement first: a fixture must never capture a
    # backend divergence as "expected".
    for other in backends[1:]:
        assert observed[other] == observed[backends[0]]
    snapshot = observed[backends[0]]

    path = GOLDEN_DIR / f"{workload}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2) + "\n",
                        encoding="utf-8")
        pytest.skip(f"rewrote {path.name}")
    assert path.exists(), (
        f"missing fixture {path}; generate it with "
        f"pytest tests/test_golden.py --update-golden")
    expected = json.loads(path.read_text(encoding="utf-8"))
    assert snapshot == expected
