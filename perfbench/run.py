"""Benchmark of the profile service and the in-process profiler.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src``.
With ``--trace 0`` the run measures the end-to-end metrics with
tracing off.  With ``--trace 1`` it runs an untraced window of half
the time, replays the same pushes with spans around each layer's
calls, and reports the per-layer metrics plus ``trace.overhead``.
Every run checks each stream's final profile against the scalar
reference.  Human-readable lines come first (timings with their sample
counts); the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every profile matched and every trace
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The workloads, by name; sizes and reasons are in WORKLOADS.md.
WORKLOADS = ("service_small_ticks", "long_intervals")


def _shapes():
    from repro.core.config import IntervalSpec

    from perfbench.inprocess import LongShape
    from perfbench.service_load import ServiceShape

    return {
        "service_small_ticks": ServiceShape(
            tenants=8, push_events=100,
            interval=IntervalSpec(2_500, 0.01), snapshot_every=8,
            max_events_per_s=250_000, prefill_pushes=400),
        "long_intervals": LongShape(
            interval=IntervalSpec(200_000, 0.001), chunk_events=1 << 16,
            max_events_per_s=500_000),
    }


class Report:
    """Collects one run's results and prints them."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatched: List[str] = []
        self.failures: List[str] = []

    def note(self, message: str) -> None:
        print(f"note: {message}")

    def metric(self, name: str, value: float, unit: str,
               samples: Optional[int] = None) -> None:
        if self.trace:
            return
        self.metrics[name] = {"value": value, "unit": unit}
        count = f"  (n={samples})" if samples is not None else ""
        print(f"{name:<34} {value:>14.6g} {unit}{count}")

    def latencies(self, prefix: str, records) -> None:
        """``<prefix>_p50_ms`` (median of the groups' medians) and
        ``<prefix>_p99_ms`` (nearest rank over every sample)."""
        from perfbench.common import percentile, steady_p50

        seconds = [record[1] for record in records]
        self.metric(f"{prefix}_p50_ms", 1000.0 * steady_p50(records), "ms",
                    samples=len(seconds))
        self.metric(f"{prefix}_p99_ms", 1000.0 * percentile(seconds, 0.99),
                    "ms", samples=len(seconds))
        if not self.trace:
            tail = "  ".join(
                f"p{100 * fraction:g} {1000.0 * percentile(seconds, fraction):.3f}"
                for fraction in (0.5, 0.9, 0.97, 0.98, 0.99, 0.995, 1.0))
            print(f"  {prefix} latency ms: {tail}")

    def layers(self, metrics: Dict[str, float]) -> None:
        if not self.trace:
            return
        units = _layer_units()
        for name, value in metrics.items():
            unit = units[name]
            self.metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<34} {value:>14.6g} {unit}")

    def outcome(self, attempted: int, failed: int, mismatched: Sequence[str],
                failures: Sequence[str] = ()) -> None:
        self.attempted = attempted
        self.failed = failed
        self.mismatched = list(mismatched)
        self.trace_failures(failures)
        for name in mismatched:
            print(f"mismatch: {name} differs from the scalar reference")

    def trace_failures(self, failures: Sequence[str]) -> None:
        for failure in failures:
            print(f"trace check failed: {failure}")
        self.failures.extend(failures)

    @property
    def correct(self) -> bool:
        return not self.mismatched and not self.failures and not self.failed

    def result(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


def _layer_units() -> Dict[str, str]:
    units = {
        "client.encode_us": "us", "client.decode_us": "us",
        "client.bytes_per_event": "B/event",
        "server.dispatch_us": "us", "server.reply_encode_us": "us",
        "server.ops_per_put": "ops/put", "server.busy_rejections": "count",
        "queue.hop_us": "us",
        "worker.fold_us_per_op": "us", "worker.ops_per_tick": "ops/tick",
        "worker.snapshot_ms": "ms", "worker.snapshot_kb": "KiB",
        "session.feed_us_per_kevent": "us/kevent",
        "session.truth_ms_per_interval": "ms",
        "session.score_ms_per_interval": "ms",
        "session.intervals_closed": "count", "session.truth_share": "fraction",
        "kernels.sh.ns_per_event": "ns/event",
        "kernels.mh4.ns_per_event": "ns/event",
        "kernels.us_per_call": "us", "kernels.events_per_call": "events",
        "hashing.ns_per_event": "ns/event", "hashing.table_builds": "count",
        "hashing.build_ms": "ms",
        "batched.dispatches": "count",
        "batched.requests_per_dispatch": "requests",
        "batched.us_per_dispatch": "us",
        "trace.overhead": "fraction",
    }
    from perfbench.tracing import LAYERS

    units.update({f"{layer}.share": "fraction" for layer in LAYERS})
    return units


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the profile service and the in-process "
                    "profiler (see perfbench/WORKLOADS.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing "
              f"(run from a checkout of the repository)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    # SIGTERM unwinds like ctrl-c, so every server started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Servers are stopped with SIGINT.  A process started with SIGINT
    # ignored (a background job) would pass that on to them through
    # exec; a handled signal is reset to the default instead.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from perfbench import inprocess, service_load

    shape = _shapes()[args.workload]
    trace = bool(args.trace)
    report = Report(trace)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    if args.workload.startswith("service_"):
        service_load.run(ROOT, shape, args.seed, args.seconds, trace, report)
    else:
        inprocess.run_long(shape, args.seed, args.seconds, trace, report)
    print(json.dumps(report.result()))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
