"""Shared pieces of the benchmark: inputs, reference, digest, statistics.

Everything here runs outside the timed windows.  Inputs are generated
from the benchmark's ``--seed`` only: one calibrated gcc stream per
tenant, stored as one contiguous ``uint64`` array pair that the load
loops slice per request.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.config import (IntervalSpec, ProfilerConfig,
                               best_multi_hash, best_single_hash)
from repro.profiling.session import ProfilingSession, SessionResult
from repro.service.worker import snapshot_dict
from repro.workloads.benchmarks import benchmark_model
from repro.workloads.generators import TupleStreamGenerator

#: The calibrated workload every tenant's stream is drawn from.
BENCHMARK = "gcc"

#: Per-interval profiles a service stream keeps for snapshots (the
#: server's default), mirrored by the reference snapshots.
SNAPSHOT_INTERVALS = 64

#: Events per generator call while building a tenant's stream.
_GENERATION_CHUNK = 1 << 16

#: Snapshot fields that are operational rather than profile content:
#: the backend label, the framing counters (how many frames a stream
#: arrived in, what was pending when the snapshot was taken) and the
#: stream id and close flag.
_NON_CONTENT = ("backend", "batches", "pending_events", "stream", "final")


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    *fraction* of all samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered))
    return ordered[rank - 1]


#: Consecutive groups of equal request count a timed window is split
#: into: rates and medians are the median over the groups, so a burst
#: of outside load during part of a run moves them less.
GROUPS = 5

#: One timed request: completion time (``perf_counter`` seconds),
#: latency (seconds) and events it carried.
Record = Tuple[float, float, int]


def groups_of(records: Sequence[Record],
              groups: int = GROUPS) -> List[List[Record]]:
    """*records* in completion order, cut into *groups* runs of equal
    count (the last takes the remainder)."""
    ordered = sorted(records)
    size = max(1, len(ordered) // groups)
    cuts = [min(len(ordered), size * index) for index in range(groups)]
    cuts.append(len(ordered))
    return [ordered[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def steady_rate(records: Sequence[Record], start: float,
                groups: int = GROUPS) -> float:
    """Median over groups of events completed per second; a group's
    time runs from the previous group's last completion (or *start*)."""
    rates = []
    previous = start
    for group in groups_of(records, groups):
        done = group[-1][0]
        rates.append(sum(record[2] for record in group) / (done - previous))
        previous = done
    return float(np.median(rates))


def steady_p50(records: Sequence[Record], groups: int = GROUPS) -> float:
    """Median over groups of each group's median latency (seconds)."""
    return float(np.median([percentile([record[1] for record in group], 0.5)
                            for group in groups_of(records, groups)]))


def tenant_config(index: int, interval: IntervalSpec) -> ProfilerConfig:
    """Even tenants run best-SH (``SH-R1-P1``), odd ones best-MH4
    (``MH4-C1-R0-P1``), both on the default backend."""
    if index % 2 == 0:
        return best_single_hash(interval=interval)
    return best_multi_hash(interval=interval)


def tenant_seed(seed: int, index: int) -> int:
    """Generator seed of tenant *index*, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def generate_streams(seed: int, tenants: Sequence[int],
                     events: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """One contiguous ``(pcs, values)`` pair of *events* per tenant
    index in *tenants*."""
    model = benchmark_model(BENCHMARK)
    streams = []
    for index in tenants:
        generator = TupleStreamGenerator(model, seed=tenant_seed(seed, index))
        pcs = np.empty(events, dtype=np.uint64)
        values = np.empty(events, dtype=np.uint64)
        for start in range(0, events, _GENERATION_CHUNK):
            count = min(_GENERATION_CHUNK, events - start)
            chunk_pcs, chunk_values = generator.chunk(count)
            pcs[start:start + count] = chunk_pcs
            values[start:start + count] = chunk_values
        streams.append((pcs, values))
    return streams


def content_digest(snapshot: Dict[str, Any]) -> str:
    """SHA-256 over the profile content of one stream snapshot:
    intervals, candidates, error summaries and event counts."""
    content = {key: value for key, value in snapshot.items()
               if key not in _NON_CONTENT}
    canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ProfilerView:
    """One profiler of a (possibly multi-profiler) session, shaped like
    the service's per-stream state so the service's own
    :func:`~repro.service.worker.snapshot_dict` serializes it."""

    def __init__(self, feeder, name: str, config: ProfilerConfig) -> None:
        self.feeder = self  # snapshot_dict reads state.feeder
        self._feeder = feeder
        self._name = name
        self.config = config
        self.stream = name
        self.batches = 0

    def snapshot(self) -> SessionResult:
        view = self._feeder.snapshot()
        return SessionResult(interval=view.interval,
                             results={self._name: view.results[self._name]},
                             perfect_profiles=view.perfect_profiles,
                             distinct_per_interval=view.distinct_per_interval)

    @property
    def events_fed(self) -> int:
        return self._feeder.events_fed

    @property
    def pending_events(self) -> int:
        return self._feeder.pending_events

    @property
    def intervals_completed(self) -> int:
        return self._feeder.intervals_completed


def session_views(feeder, configs: Sequence[ProfilerConfig]
                  ) -> List[ProfilerView]:
    """A :class:`ProfilerView` per profiler of *feeder*'s session, whose
    profilers were built from *configs*, in order."""
    names = list(feeder.snapshot().results)
    return [ProfilerView(feeder, name, config)
            for name, config in zip(names, configs)]


def reference_digests(configs: Sequence[ProfilerConfig], pcs: np.ndarray,
                      values: np.ndarray, flush: bool) -> List[str]:
    """Digests of the scalar reference of each of *configs* over one
    stream, in order.

    The arrays go through one :class:`SessionFeeder` that runs every
    profiler on ``backend="scalar"`` (the spec), in one call; the
    feeder's split-invariance makes that equal to any batching of the
    same events, and one session computes each interval's ground truth
    once for all its profilers.  *flush* closes a trailing partial
    interval, as closing a service stream does.
    """
    scalar = [config.with_backend("scalar") for config in configs]
    session = ProfilingSession(scalar, keep_profiles=True)
    feeder = session.feeder()
    feeder.feed(pcs, values)
    flushed = feeder.flush() if flush else False
    return [content_digest(snapshot_dict(view, SNAPSHOT_INTERVALS,
                                         final=True, flushed=flushed))
            for view in session_views(feeder, scalar)]


def warm_hash_tables(session: ProfilingSession) -> None:
    """Build every profiler's lazy hash fold tables without feeding an
    event."""
    probe = np.zeros(1, dtype=np.uint64)
    for profiler in session.profilers:
        for function in ProfilingSession._hash_functions(profiler) or ():
            function.index_array(probe, probe)


# -- memory -------------------------------------------------------------

def status_kb(pid: int, key: str) -> int:
    """A ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(f"{key} not in /proc/{pid}/status")


def children_of(pid: int) -> List[int]:
    """Direct child processes of *pid*."""
    children: List[int] = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as handle:
            children.extend(int(child) for child in handle.read().split())
    return children


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current RSS."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")
