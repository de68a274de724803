"""Experiment fabric: parallel parity, result caching, runner plumbing.

The load-bearing guarantee is **bit-identical reports**: for every
registered experiment, running under an active fabric with ``--jobs 4``
must render exactly the serial no-fabric output -- whether cells are
executed in workers, in-process, or served from the result cache.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.core.config import BACKEND_ENV, best_single_hash
from repro.core.tuples import EventKind
from repro.experiments import runner
from repro.experiments.base import EXPERIMENTS, ExperimentScale
from repro.experiments.fabric import ExperimentFabric, SweepCell, activate
from repro.experiments.runner import (build_parser, resolve_names,
                                      scale_from_args)

TINY = ExperimentScale().tiny()
#: Single-benchmark scale for the cheap cache-behaviour tests.
SMALL = replace(TINY, benchmarks=("gcc",))


# ----------------------------------------------------------------------
# Parity: serial == parallel for every experiment
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fabric-cache"))


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_parallel_run_is_bit_identical_to_serial(name, shared_cache,
                                                 request):
    if name == "scenarios":
        # Its report puts the scalar and the vectorized backend side
        # by side, so it needs the compiled loop.
        request.getfixturevalue("compiled_kernel")
    serial = EXPERIMENTS[name](TINY).render()
    with ExperimentFabric(jobs=4, cache_dir=shared_cache) as fabric:
        with activate(fabric):
            parallel = EXPERIMENTS[name](TINY).render()
    assert parallel == serial


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------

def _run_fig07(cache_dir, **kwargs):
    with ExperimentFabric(jobs=1, cache_dir=cache_dir,
                          **kwargs) as fabric:
        with activate(fabric):
            rendered = EXPERIMENTS["fig07"](SMALL).render()
        return rendered, fabric.stats


def test_second_run_hits_cache_and_skips_execution(tmp_path):
    first, cold = _run_fig07(str(tmp_path))
    assert cold.executed > 0 and cold.cache_hits == 0
    second, warm = _run_fig07(str(tmp_path))
    assert warm.executed == 0
    assert warm.cache_hits == cold.executed
    assert second == first  # cached results render bit-identically


def test_refresh_recomputes_but_rewrites_cache(tmp_path):
    first, _ = _run_fig07(str(tmp_path))
    refreshed, stats = _run_fig07(str(tmp_path), refresh=True)
    assert stats.executed > 0 and stats.cache_hits == 0
    assert refreshed == first
    _, warm = _run_fig07(str(tmp_path))  # refresh repopulated the cache
    assert warm.executed == 0 and warm.cache_hits > 0


def test_mapped_cells_are_cached_too(tmp_path):
    """fig04 runs through fabric_map, not sweep(); its cells memoize
    under the pickle-based mapped-cell cache."""
    def run():
        with ExperimentFabric(jobs=1,
                              cache_dir=str(tmp_path)) as fabric:
            with activate(fabric):
                rendered = EXPERIMENTS["fig04"](SMALL).render()
            return rendered, fabric.stats
    first, cold = run()
    assert cold.mapped_cells > 0 and cold.mapped_hits == 0
    second, warm = run()
    assert warm.mapped_hits == warm.mapped_cells == cold.mapped_cells
    assert second == first


def test_no_cache_disables_memoization(tmp_path):
    _run_fig07(str(tmp_path), use_result_cache=False)
    _, stats = _run_fig07(str(tmp_path), use_result_cache=False)
    assert stats.executed > 0 and stats.cache_hits == 0
    assert not os.path.exists(str(tmp_path / "results"))


def test_fingerprint_is_stable_and_input_sensitive():
    spec = TINY.short_spec
    config = best_single_hash(spec)
    config = config.with_backend(config.requested_backend)
    cell = SweepCell(benchmark="gcc", configs=(("BSH", config),),
                     num_intervals=4, kind=EventKind.VALUE, seed=7)
    assert cell.fingerprint() == cell.fingerprint()
    assert len(cell.fingerprint()) == 64
    other = replace(cell, num_intervals=5)
    assert other.fingerprint() != cell.fingerprint()
    assert (replace(cell, benchmark="go").fingerprint()
            != cell.fingerprint())


# ----------------------------------------------------------------------
# Runner plumbing
# ----------------------------------------------------------------------

def test_resolve_names_dedupes_preserving_order():
    assert resolve_names(["fig07", "fig07", "fig04"]) == ["fig07",
                                                          "fig04"]


def test_resolve_names_mixes_all_with_explicit_names():
    names = resolve_names(["fig13", "all"])
    assert names[0] == "fig13"
    assert sorted(names) == sorted(EXPERIMENTS)
    assert names.count("fig13") == 1


def test_backend_flag_threads_through_scale_not_environ():
    before = os.environ.get(BACKEND_ENV)
    args = build_parser().parse_args(["fig07", "--backend", "scalar"])
    scale = scale_from_args(args)
    assert scale.backend == "scalar"
    assert os.environ.get(BACKEND_ENV) == before


def test_unknown_experiment_fails_cleanly(capsys):
    assert runner.main(["definitely-not-real"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_bench_cannot_mix_with_other_names(capsys):
    assert runner.main(["bench", "fig07"]) == 2
    assert "bench" in capsys.readouterr().err
