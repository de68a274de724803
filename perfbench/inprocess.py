"""In-process workload: one ``SessionFeeder`` over one stream.

No server runs.  A "push" is one ``SessionFeeder.feed`` call of one
chunk into a session that runs best-SH and best-MH4 side by side.

Before timing, the session is fed one interval in one untimed call
(split-invariance makes that equal to any batching).  A second, frozen
session gets the first ``FROZEN_INTERVALS`` intervals and nothing more.
After each feed of the timed window, snapshot samples serialize the
frozen session's two profiles, so every sample serializes the same
state whatever the throughput: the service's ``snapshot_dict`` of the
best-SH and the best-MH4 profile, framed with ``encode_json`` and
parsed back with ``decode_json``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.config import IntervalSpec, best_multi_hash, best_single_hash
from repro.profiling.session import ProfilingSession
from repro.service import protocol
from repro.service.worker import snapshot_dict

from perfbench import common, tracing

#: Set-ups timed per run, at least ``SETUPS`` over at least
#: ``SETUP_SECONDS``; ``setup_s`` is their median.
SETUPS = 5
SETUP_SECONDS = 1.0

#: Snapshot samples taken after each feed of the timed window.  Spread
#: over the window, they see the same machine as the feeds; a single
#: burst of a few seconds read the host's state of those seconds.
SNAPSHOTS_PER_FEED = 16

#: Intervals the frozen session holds.  A snapshot then takes about
#: 5 ms.  With one interval, a 0.7 ms call fell wholly into the host's
#: fast or slow phases, which switch every few milliseconds, and the
#: median jumped between them from run to run.  Sizes in between put
#: ``snapshot_p99_ms`` on an edge: the process's full (generation-2)
#: garbage collections, about 10 ms each, land in 1.5 % of the samples
#: at four intervals and in 3 to 4 % at eight, where p99 lies well
#: inside them.
FROZEN_INTERVALS = 8


@dataclass(frozen=True)
class LongShape:
    """One session running both architectures over one stream."""

    interval: IntervalSpec
    chunk_events: int
    max_events_per_s: int


class _Run:
    """The session of one set-up plus the measurements of one window."""

    def __init__(self, shape: LongShape, pcs: np.ndarray,
                 values: np.ndarray) -> None:
        started = time.perf_counter()
        self.configs = [best_single_hash(interval=shape.interval),
                        best_multi_hash(interval=shape.interval)]
        session = ProfilingSession(list(self.configs), keep_profiles=True)
        self.feeder = session.feeder()
        common.warm_hash_tables(session)
        self.setup_seconds = time.perf_counter() - started
        self.chunk = shape.chunk_events
        self.pcs = pcs
        self.values = values
        self.offset = 0
        self.pushes: List[common.Record] = []
        self.exhausted = False

    def feed_prefix(self, length: int) -> None:
        """Feed the first *length* events, untimed."""
        self.feeder.feed(self.pcs[:length], self.values[:length])
        self.offset = length

    def views(self) -> List[common.ProfilerView]:
        return common.session_views(self.feeder, self.configs)

    def digests(self) -> List[str]:
        return [common.content_digest(snapshot_dict(
            view, common.SNAPSHOT_INTERVALS, final=True))
            for view in self.views()]

    def window(self, deadline: Optional[float], target: Optional[int],
               tracer: Optional[tracing.Tracer] = None,
               between: Optional[Callable[[], None]] = None) -> float:
        """Feed chunks until *deadline* (timed window) or until *target*
        feeds (traced replay), or until the stream is used up; calls
        *between* after each feed.  Returns the wall time."""
        started = time.perf_counter()
        while True:
            if target is not None and len(self.pushes) >= target:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
            lo, hi = self.offset, self.offset + self.chunk
            if hi > len(self.pcs):
                self.exhausted = True
                break
            opened = tracer.begin() if tracer else None
            start_ns = time.perf_counter_ns()
            pushed = time.perf_counter()
            self.feeder.feed(self.pcs[lo:hi], self.values[lo:hi])
            done = time.perf_counter()
            if tracer:
                tracer.end(opened, "bench.push", start_ns, self.chunk)
            self.pushes.append((done, done - pushed, self.chunk))
            self.offset = hi
            if between is not None:
                between()
        return time.perf_counter() - started


def _setups(shape: LongShape, pcs, values) -> Tuple[_Run, List[float]]:
    seconds: List[float] = []
    run = None
    while len(seconds) < SETUPS or sum(seconds) < SETUP_SECONDS:
        run = None  # one session alive at a time
        run = _Run(shape, pcs, values)
        seconds.append(run.setup_seconds)
    return run, seconds


def _snapshot_sample(views: List[common.ProfilerView]) -> common.Record:
    """Time one snapshot of a session's two profiles.

    A sample serializes the best-SH and the best-MH4 profile into one
    frame and parses it back.  A sample of one profile would put the
    median on the edge between the cheaper and the dearer
    architecture's snapshots.
    """
    started = time.perf_counter()
    frame = protocol.encode_json(protocol.T_OK, {"snapshots": [
        snapshot_dict(view, common.SNAPSHOT_INTERVALS) for view in views]})
    protocol.decode_json(memoryview(frame)[protocol.HEADER.size:])
    done = time.perf_counter()
    return done, done - started, 0


def run_long(shape: LongShape, seed: int, seconds: float, trace: bool,
             report) -> None:
    prefix = shape.interval.length
    events = max(FROZEN_INTERVALS * prefix,
                 prefix + (int(shape.max_events_per_s * seconds)
                           // shape.chunk_events + 1) * shape.chunk_events)
    (pcs, values), = common.generate_streams(seed, [0], events)
    if trace:
        run = _traced(shape, pcs, values, seconds, report)
    else:
        common.reset_peak_rss()
        base_kb = common.status_kb(os.getpid(), "VmRSS")
        run, setups = _setups(shape, pcs, values)
        frozen = _Run(shape, pcs, values)
        run.feed_prefix(prefix)
        frozen.feed_prefix(FROZEN_INTERVALS * prefix)
        views = frozen.views()
        snapshots: List[common.Record] = []
        run.window(time.perf_counter() + seconds, None,
                   between=lambda: snapshots.extend(
                       _snapshot_sample(views)
                       for _ in range(SNAPSHOTS_PER_FEED)))
        peak_kb = common.status_kb(os.getpid(), "VmHWM")
        if run.exhausted:
            report.note("the stream was used up; the window ended early")
        # Per second spent in feed calls, over the whole window: a group
        # of the few 64K-event feeds holds a varying number of interval
        # closes, and the snapshot samples between feeds are not feeding.
        feeding = sum(record[1] for record in run.pushes)
        report.metric("events_per_s", len(run.pushes) * run.chunk / feeding,
                      "events/s")
        report.latencies("push", run.pushes)
        report.latencies("snapshot", snapshots)
        report.metric("setup_s", float(np.median(setups)), "s",
                      samples=len(setups))
        report.metric("peak_rss_mb", (peak_kb - base_kb) / 1024, "MB")
    _check(report, run)


def _traced(shape: LongShape, pcs, values, seconds: float,
            report) -> _Run:
    """Untraced window of half the run, then a traced replay of the
    same feeds; reports the per-layer metrics."""
    first = _Run(shape, pcs, values)
    first.feed_prefix(shape.interval.length)
    untraced = first.window(time.perf_counter() + seconds / 2, None)
    tracer = tracing.Tracer()
    patches = tracing.Patches()
    tracing.install_profiler(tracer, patches)
    try:
        second = _Run(shape, pcs, values)
        second.feed_prefix(shape.interval.length)
        lo = time.perf_counter_ns()
        traced = second.window(None, len(first.pushes), tracer)
        hi = time.perf_counter_ns()
    finally:
        patches.restore()
    metrics, failures = tracing.layer_metrics({os.getpid(): tracer.spans},
                                              dict(tracer.counts), (lo, hi),
                                              0)
    metrics["trace.overhead"] = traced / untraced - 1
    report.layers(metrics)
    share, unaccounted = tracing.check_accounted(tracer.spans, (lo, hi))
    print(f"trace: {share:.4%} of the traced wall time is outside every "
          f"layer (tolerance {tracing.UNACCOUNTED_TOLERANCE:.0%})")
    report.trace_failures(failures + unaccounted)
    if first.digests() != second.digests():
        report.trace_failures(["traced replay differs from the untraced "
                               "window"])
    return first


def _check(report, run: _Run) -> None:
    """Compare the stream's profiles with the scalar reference
    (``success_rate``: matching streams over streams)."""
    fed = run.offset
    expected = common.reference_digests(run.configs, run.pcs[:fed],
                                        run.values[:fed], False)
    bad = [] if run.digests() == expected else ["stream-0"]
    report.outcome(1, len(bad), bad)
    report.metric("success_rate", 1.0 - len(bad), "fraction")
