"""Command-line entry point: regenerate any figure's rows.

Usage::

    repro-experiments fig12                 # one experiment
    repro-experiments all                   # everything
    repro-experiments all --jobs 4          # everything, 4 workers
    repro-experiments fig11 --full          # paper-scale operating point
    repro-experiments fig07 --benchmarks gcc,go --long-intervals 4
    repro-experiments bench                 # serial-vs-parallel timing

Scaling flags override the ``REPRO_*`` environment variables documented
in :mod:`repro.experiments.base`.  ``--jobs`` (or ``REPRO_JOBS``)
fans the suite's independent cells out across worker processes;
results are bit-identical to a serial run at any job count.  Finished
sweep cells are memoized under ``--cache-dir`` (``REPRO_CACHE_DIR``,
default ``~/.cache/repro``); ``--no-cache`` disables the result cache
and ``--refresh`` recomputes but rewrites it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional

from ..core.config import LONG_INTERVAL
from ..ioutil import atomic_write_json
from ..workloads.benchmarks import clear_model_memo
from .base import EXPERIMENTS, ExperimentScale
from .fabric import ExperimentFabric, activate, default_jobs

# Importing the experiment modules populates the registry.
from . import (ablations, adaptive_interval, area_budget, baselines,  # noqa: F401
               fig04_distinct_tuples, fig05_candidates, fig06_variation, fig07_single_hash,
               fig09_theory, fig10_multihash_design, fig12_best_multihash,
               fig13_per_interval, fig14_edge, scenarios,
               stratified_baseline, table_size_ablation)

#: Where ``repro-experiments bench`` writes its timing row.
BENCH_RESULT_PATH = os.path.join("benchmarks", "results",
                                 "BENCH_experiments.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=("Regenerate the evaluation figures of 'Catching "
                     "Accurate Profiles in Hardware' (HPCA 2003)"))
    parser.add_argument("experiments", nargs="+",
                        help=f"experiment names, 'all', or 'bench'; "
                             f"known: {', '.join(sorted(EXPERIMENTS))}")
    parser.add_argument("--full", action="store_true",
                        help="run the paper's full operating points "
                             "(1M-event long intervals)")
    parser.add_argument("--long-length", type=int, default=None,
                        help="long interval length in events")
    parser.add_argument("--long-intervals", type=int, default=None,
                        help="number of long intervals per benchmark")
    parser.add_argument("--short-intervals", type=int, default=None,
                        help="number of 10K intervals per benchmark")
    parser.add_argument("--benchmarks", type=str, default=None,
                        help="comma-separated benchmark subset")
    parser.add_argument("--backend",
                        choices=("scalar", "vectorized"),
                        default=None,
                        help="profiler backend for every experiment "
                             "(default: REPRO_BACKEND, else the "
                             "compiled loop when it can be built)")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes for independent cells "
                             "(default: REPRO_JOBS, else all cores)")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="trace + result cache root (default: "
                             "REPRO_CACHE_DIR, else ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed result "
                             "cache (traces are still shared)")
    parser.add_argument("--refresh", action="store_true",
                        help="recompute every cell but rewrite the "
                             "result cache with the fresh outputs")
    return parser


def scale_from_args(args: argparse.Namespace) -> ExperimentScale:
    scale = ExperimentScale.from_env()
    if args.full:
        scale = replace(scale,
                        long_interval_length=LONG_INTERVAL.length,
                        long_intervals=10, short_intervals=60)
    if args.long_length is not None:
        scale = replace(scale, long_interval_length=args.long_length)
    if args.long_intervals is not None:
        scale = replace(scale, long_intervals=args.long_intervals)
    if args.short_intervals is not None:
        scale = replace(scale, short_intervals=args.short_intervals)
    if args.benchmarks is not None:
        scale = replace(scale, benchmarks=tuple(
            name.strip() for name in args.benchmarks.split(",")
            if name.strip()))
    if args.backend is not None:
        # Threaded through ExperimentScale -- never via os.environ, so
        # the flag cannot leak into other code in this process or into
        # worker processes beyond the configs it pins.
        scale = replace(scale, backend=args.backend)
    return scale


def resolve_names(requested: List[str]) -> List[str]:
    """Expand ``all`` (mixable with explicit names) and dedupe,
    preserving first-occurrence order."""
    expanded: List[str] = []
    for name in requested:
        if name == "all":
            expanded.extend(sorted(EXPERIMENTS))
        else:
            expanded.append(name)
    seen = set()
    ordered = []
    for name in expanded:
        if name not in seen:
            seen.add(name)
            ordered.append(name)
    return ordered


def build_fabric(args: argparse.Namespace,
                 quiet: bool = False) -> ExperimentFabric:
    return ExperimentFabric(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_result_cache=not args.no_cache,
        refresh=args.refresh,
        progress=None if quiet else lambda line: print(f"  {line}",
                                                       flush=True))


def run_experiments(names: List[str], scale: ExperimentScale,
                    fabric: Optional[ExperimentFabric],
                    quiet: bool = False) -> Dict[str, float]:
    """Run *names* in order; returns per-experiment wall-clock."""
    timings: Dict[str, float] = {}
    for name in names:
        started = time.perf_counter()
        if fabric is not None:
            fabric.context = name
            with activate(fabric):
                report = EXPERIMENTS[name](scale)
        else:
            report = EXPERIMENTS[name](scale)
        timings[name] = time.perf_counter() - started
        if not quiet:
            print(report.render())
            print(f"[{name} finished in {timings[name]:.1f}s]\n")
    return timings


def run_bench(args: argparse.Namespace) -> int:
    """Time the full suite serial vs parallel (cold and warm cache)."""
    import tempfile

    scale = scale_from_args(args)
    names = sorted(EXPERIMENTS)
    jobs = args.jobs if args.jobs is not None else default_jobs()
    result = {
        "suite": names,
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "scale": {
            "benchmarks": list(scale.benchmarks),
            "short_intervals": scale.short_intervals,
            "long_intervals": scale.long_intervals,
            "long_interval_length": scale.long_interval_length,
        },
    }

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_dir:
        # Each leg starts from an empty model memo: no leg, nor the pool
        # workers it forks, inherits the solves of the legs before it.
        print(f"[bench] serial leg: {len(names)} experiments, "
              f"no fabric", flush=True)
        clear_model_memo()
        started = time.perf_counter()
        serial_times = run_experiments(names, scale, None, quiet=True)
        serial_seconds = time.perf_counter() - started

        print(f"[bench] parallel cold leg: --jobs {jobs}, fresh cache",
              flush=True)
        clear_model_memo()
        started = time.perf_counter()
        with ExperimentFabric(jobs=jobs, cache_dir=cache_dir) as fabric:
            cold_times = run_experiments(names, scale, fabric,
                                         quiet=True)
            cold_stats = fabric.stats.as_dict()
        cold_seconds = time.perf_counter() - started

        print(f"[bench] parallel warm leg: --jobs {jobs}, reused cache",
              flush=True)
        clear_model_memo()
        started = time.perf_counter()
        with ExperimentFabric(jobs=jobs, cache_dir=cache_dir) as fabric:
            warm_times = run_experiments(names, scale, fabric,
                                         quiet=True)
            warm_stats = fabric.stats.as_dict()
        warm_seconds = time.perf_counter() - started

    result.update({
        "serial_seconds": round(serial_seconds, 3),
        "parallel_cold_seconds": round(cold_seconds, 3),
        "parallel_warm_seconds": round(warm_seconds, 3),
        "parallel_speedup": round(serial_seconds / cold_seconds, 3),
        "warm_fraction_of_cold": round(warm_seconds / cold_seconds, 3),
        "per_experiment": {
            name: {"serial": round(serial_times[name], 3),
                   "parallel_cold": round(cold_times[name], 3),
                   "parallel_warm": round(warm_times[name], 3)}
            for name in names},
        "cold_stats": cold_stats,
        "warm_stats": warm_stats,
    })

    atomic_write_json(BENCH_RESULT_PATH, result)
    print(f"[bench] serial {serial_seconds:.1f}s | parallel cold "
          f"{cold_seconds:.1f}s (x{result['parallel_speedup']:.2f}) | "
          f"warm {warm_seconds:.1f}s "
          f"({100 * result['warm_fraction_of_cold']:.0f}% of cold) | "
          f"jobs={jobs} cores={result['cpu_count']}")
    print(f"[bench] wrote {BENCH_RESULT_PATH}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    names = resolve_names(args.experiments)
    if "bench" in names:
        if len(names) > 1:
            print("'bench' runs the whole suite and cannot be mixed "
                  "with other experiment names", file=sys.stderr)
            return 2
        return run_bench(args)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; known: "
              f"{', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    scale = scale_from_args(args)
    started = time.perf_counter()
    with build_fabric(args) as fabric:
        timings = run_experiments(names, scale, fabric)
        stats = fabric.stats
    total = time.perf_counter() - started
    print(f"[suite: {len(timings)} experiment(s) in {total:.1f}s "
          f"wall-clock | jobs={fabric.jobs} | cells: "
          f"{stats.executed} executed, {stats.cache_hits} cached, "
          f"{stats.mapped_cells} mapped ({stats.mapped_hits} cached) | "
          f"{stats.cell_seconds:.1f}s total cell time]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
