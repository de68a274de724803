"""Profiling sessions: one stream, many profilers, scored intervals.

A :class:`ProfilingSession` feeds a single event stream simultaneously
to any number of hardware profiler configurations, closes intervals in
lockstep, and scores each hardware profile against exact per-interval
ground truth with the paper's error metric.  Feeding all configurations
in one pass is how the design-space figures (7, 10-12) are produced
efficiently: the stream is generated once per benchmark, not once per
configuration.

Two execution paths produce identical results (tested):

* the **per-event path** accepts any iterable of tuples and runs a
  :class:`~repro.core.perfect.PerfectProfiler` alongside the hardware
  profilers;
* the **chunked path** accepts array-chunk sources (stream generators,
  traces), pre-hashes whole chunks vectorized, drives the profilers'
  ``observe_chunk`` fast loops, and derives ground truth per interval
  from an exact pair count (:func:`~repro.core.kernels.count_pairs`: a
  seeded hash table in the compiled loop, or one NumPy sort without a
  compiler) instead of a per-event dictionary, sorting only the
  candidates.  This makes the paper's million-event intervals
  practical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple, Union)

import numpy as np

from ..core.base import HardwareProfiler, IntervalProfile
from ..core.batched import BatchedKernelRunner
from ..core.config import IntervalSpec, ProfilerConfig
from ..core.hashing import TupleHashFunction
from ..core.kernels import PairCounts, count_pairs
from ..core.multi_hash import MultiHashProfiler, build_profiler
from ..core.perfect import PerfectProfiler
from ..core.single_hash import SingleHashProfiler
from ..core.tuples import ProfileTuple
from ..metrics.error import ErrorSummary, interval_error
from ..workloads.generators import TupleStreamGenerator
from ..workloads.traces import Trace

ConfigOrProfiler = Union[ProfilerConfig, HardwareProfiler]

#: Events processed per vectorized chunk.
CHUNK_EVENTS = 1 << 16


@dataclass
class ProfilerResult:
    """Everything recorded for one hardware profiler over a session."""

    name: str
    profiler: HardwareProfiler
    summary: ErrorSummary = field(default_factory=ErrorSummary)
    profiles: List[IntervalProfile] = field(default_factory=list)


@dataclass
class SessionResult:
    """Outcome of a profiling session.

    ``perfect_profiles`` holds the oracle's per-interval candidate
    reports; ``distinct_per_interval`` feeds the Figure 4 analysis;
    ``results`` holds each hardware profiler's scored run, keyed by
    profiler name.
    """

    interval: IntervalSpec
    results: Dict[str, ProfilerResult]
    perfect_profiles: List[IntervalProfile]
    distinct_per_interval: List[int]

    @property
    def candidate_sets(self) -> List[Set[ProfileTuple]]:
        """Per-interval perfect candidate sets (Figure 6 variation)."""
        return [set(profile.candidates) for profile in self.perfect_profiles]

    @property
    def candidates_per_interval(self) -> List[int]:
        """Per-interval perfect candidate counts (Figure 5)."""
        return [len(profile) for profile in self.perfect_profiles]

    def summary_of(self, name: str) -> ErrorSummary:
        return self.results[name].summary

    def single(self) -> ProfilerResult:
        """The sole result, for single-profiler sessions."""
        if len(self.results) != 1:
            raise ValueError(
                f"session has {len(self.results)} profilers; name one of: "
                f"{', '.join(self.results)}")
        return next(iter(self.results.values()))

    @property
    def summary(self) -> ErrorSummary:
        """Error summary of a single-profiler session."""
        return self.single().summary


class _TraceReader:
    """Chunk cursor over a recorded trace."""

    def __init__(self, trace: Trace) -> None:
        self._trace = trace
        self._cursor = 0

    def chunk(self, count: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        start, stop = self._cursor, self._cursor + count
        if stop > len(self._trace):
            return None
        self._cursor = stop
        return self._trace.pcs[start:stop], self._trace.values[start:stop]


class _GeneratorReader:
    """Chunk cursor over an endless stream generator."""

    def __init__(self, generator: TupleStreamGenerator) -> None:
        self._generator = generator

    def chunk(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._generator.chunk(count)


class ProfilingSession:
    """Drive one stream through profilers and score every interval.

    Parameters
    ----------
    profilers:
        One configuration/profiler or a sequence of them.  Configs are
        instantiated via :func:`~repro.core.multi_hash.build_profiler`.
        All profilers must share one interval spec (hardware intervals
        are a global event count, not per-structure).
    keep_profiles:
        Retain every per-interval :class:`IntervalProfile`.  Off by
        default to bound memory on long runs; error summaries are
        always kept.
    """

    def __init__(self,
                 profilers: Union[ConfigOrProfiler,
                                  Sequence[ConfigOrProfiler]],
                 keep_profiles: bool = False) -> None:
        if isinstance(profilers, (ProfilerConfig, HardwareProfiler)):
            profilers = [profilers]
        if not profilers:
            raise ValueError("at least one profiler is required")
        self.profilers: List[HardwareProfiler] = []
        for item in profilers:
            profiler = (build_profiler(item)
                        if isinstance(item, ProfilerConfig) else item)
            self.profilers.append(profiler)
        intervals = {p.interval for p in self.profilers}
        if len(intervals) != 1:
            raise ValueError(
                f"all profilers must share one interval spec, got "
                f"{sorted((i.length, i.threshold) for i in intervals)}")
        self.interval = self.profilers[0].interval
        self.keep_profiles = keep_profiles
        self._names = self._unique_names()

    def _unique_names(self) -> List[str]:
        names: List[str] = []
        seen: Dict[str, int] = {}
        for profiler in self.profilers:
            base = profiler.name
            ordinal = seen.get(base, 0)
            seen[base] = ordinal + 1
            names.append(base if ordinal == 0 else f"{base}#{ordinal}")
        return names

    def run(self,
            source: Union[Iterable[ProfileTuple], TupleStreamGenerator,
                          Trace],
            max_intervals: Optional[int] = None) -> SessionResult:
        """Profile *source* and return scored results.

        Stream generators and traces take the chunked fast path; any
        other iterable of tuples is consumed per event.  Chunked
        sources are recognized by a callable ``chunk`` attribute
        (:class:`TupleStreamGenerator`,
        :class:`~repro.workloads.scenarios.ScenarioStream`, ...); they
        are endless, so *max_intervals* is required for them.  Traces
        and iterables stop at exhaustion (a trailing partial interval
        is discarded -- the paper's metrics are defined over full
        intervals only).
        """
        if isinstance(source, Trace):
            limit = max_intervals
            available = len(source) // self.interval.length
            return self._run_chunked(
                _TraceReader(source),
                available if limit is None else min(limit, available))
        if callable(getattr(source, "chunk", None)):
            if max_intervals is None:
                raise ValueError(
                    "max_intervals is required for endless stream "
                    "generators")
            return self._run_chunked(_GeneratorReader(source),
                                     max_intervals)
        return self._run_events(source, max_intervals)

    # ------------------------------------------------------------------
    # Per-event path
    # ------------------------------------------------------------------

    def _run_events(self, events: Iterable[ProfileTuple],
                    max_intervals: Optional[int]) -> SessionResult:
        perfect = PerfectProfiler(self.interval)
        results = self._new_results()
        perfect_profiles: List[IntervalProfile] = []

        length = self.interval.length
        threshold = self.interval.threshold_count
        profilers = self.profilers
        pending = 0
        intervals_done = 0
        for event in events:
            perfect.observe(event)
            for profiler in profilers:
                profiler.observe(event)
            pending += 1
            if pending < length:
                continue
            pending = 0
            truth = perfect.interval_counts()
            perfect_profiles.append(perfect.end_interval())
            self._score_interval(results, truth, threshold)
            intervals_done += 1
            if max_intervals is not None and intervals_done >= max_intervals:
                break

        return SessionResult(
            interval=self.interval,
            results=results,
            perfect_profiles=perfect_profiles,
            distinct_per_interval=list(perfect.distinct_history),
        )

    # ------------------------------------------------------------------
    # Chunked path
    # ------------------------------------------------------------------

    def feeder(self) -> "SessionFeeder":
        """An incremental driver over this session's profilers.

        Used by long-running consumers (the profile service) that
        receive event batches over time instead of owning a finite
        source; :meth:`run` is itself implemented on top of it.
        """
        return SessionFeeder(self)

    def _run_chunked(self, reader, num_intervals: int) -> SessionResult:
        feeder = self.feeder()
        length = self.interval.length
        while feeder.intervals_completed < num_intervals:
            piece = reader.chunk(
                min(CHUNK_EVENTS, length - feeder.pending_events))
            if piece is None:
                break
            feeder.feed(*piece)
        return feeder.finish()

    @staticmethod
    def _hash_functions(profiler: HardwareProfiler
                        ) -> Optional[List[TupleHashFunction]]:
        """Hash functions to pre-compute for *profiler* (None = no
        vectorizable front end; its observe_chunk falls back)."""
        if isinstance(profiler, MultiHashProfiler):
            return profiler.hash_functions
        if isinstance(profiler, SingleHashProfiler):
            return [profiler.hash_function]
        return None

    # ------------------------------------------------------------------
    # Shared scoring
    # ------------------------------------------------------------------

    def _new_results(self) -> Dict[str, ProfilerResult]:
        return {name: ProfilerResult(name=name, profiler=profiler)
                for name, profiler in zip(self._names, self.profilers)}

    def _score_interval(self, results: Dict[str, ProfilerResult],
                        truth, threshold: int) -> None:
        for name, profiler in zip(self._names, self.profilers):
            profile = profiler.end_interval()
            true_counts = (truth if isinstance(truth, dict)
                           else truth.counts_for(profile))
            result = results[name]
            result.summary.add(
                interval_error(true_counts, profile, threshold))
            if self.keep_profiles:
                result.profiles.append(profile)


class SessionFeeder:
    """Incremental chunked driver for a :class:`ProfilingSession`.

    Accepts event batches of arbitrary size via :meth:`feed`, splits
    them at interval boundaries, drives every profiler's
    ``observe_chunk`` fast path with vectorized pre-hashing, and closes
    and scores an interval the moment its event count is reached --
    exactly the session's chunked path, but push- instead of
    pull-driven.  This is what a profile-service worker owns per
    stream: batches arrive over the wire over minutes or hours, and a
    consistent :class:`SessionResult` view is available at any time via
    :meth:`snapshot`.

    Equivalence guarantee (tested): feeding a stream in any batch
    partitioning yields results identical to ``session.run`` over the
    same events, because per-event observation order and interval
    boundaries are preserved regardless of how batches are split.
    """

    def __init__(self, session: ProfilingSession) -> None:
        self._session = session
        self._results = session._new_results()
        self._perfect_profiles: List[IntervalProfile] = []
        self._distinct: List[int] = []
        self._functions = [session._hash_functions(profiler)
                           for profiler in session.profilers]
        #: Issues and counts the kernel calls of :meth:`feed`.
        self.runner = BatchedKernelRunner()
        self._pieces: List[Tuple[np.ndarray, np.ndarray]] = []
        self._pending = 0
        self._intervals = 0
        self.events_fed = 0

    @property
    def interval(self) -> IntervalSpec:
        return self._session.interval

    @property
    def pending_events(self) -> int:
        """Events observed in the currently-open interval."""
        return self._pending

    @property
    def intervals_completed(self) -> int:
        return self._intervals

    def feed(self, pcs: np.ndarray, values: np.ndarray) -> int:
        """Feed one batch of events; returns intervals closed by it.

        The arrays must be parallel 1-D ``uint64`` PC/value arrays (any
        integer dtype is coerced).  Batches may be any size: a batch
        smaller than an interval leaves the interval open, a larger one
        closes several intervals.
        """
        return self._feed(pcs, values, self.runner)

    def _feed(self, pcs: np.ndarray, values: np.ndarray,
              runner: BatchedKernelRunner) -> int:
        """:meth:`feed`, with the kernel calls issued and counted by
        *runner*."""
        pcs = np.ascontiguousarray(pcs, dtype=np.uint64)
        values = np.ascontiguousarray(values, dtype=np.uint64)
        if pcs.shape != values.shape or pcs.ndim != 1:
            raise ValueError(
                f"batch arrays must be parallel and 1-D, got shapes "
                f"{pcs.shape} vs {values.shape}")
        length = self.interval.length
        closed = 0
        offset = 0
        total = len(pcs)
        while offset < total:
            take = min(total - offset, length - self._pending)
            self._observe_piece(pcs[offset:offset + take],
                                values[offset:offset + take], runner)
            offset += take
            if self._pending == length:
                self._close_interval(length)
                closed += 1
        return closed

    def _observe_piece(self, pcs: np.ndarray, values: np.ndarray,
                       runner: BatchedKernelRunner) -> None:
        """Feed every profiler one interval-bounded piece.

        The scalar profilers are fed here; the compiled-loop profilers'
        ``(profiler, pcs, values)`` requests go to *runner*, which
        issues and counts their kernel calls.
        """
        requests: List[Tuple[HardwareProfiler,
                             np.ndarray, np.ndarray]] = []
        events = None
        for profiler, functions in zip(self._session.profilers,
                                       self._functions):
            if profiler.supports_array_chunks:
                # The compiled loop consumes the arrays natively; no
                # per-event tuple list is ever materialized.
                requests.append((profiler, pcs, values))
                continue
            if events is None:
                events = list(zip(pcs.tolist(), values.tolist()))
            if functions is None:
                profiler.observe_chunk(events, None)
            else:
                index_lists = [function.index_array(pcs, values).tolist()
                               for function in functions]
                profiler.observe_chunk(events, index_lists)
        runner.dispatch(requests)
        self._pieces.append((pcs, values))
        self._pending += len(pcs)
        self.events_fed += len(pcs)

    def _close_interval(self, events_observed: int) -> None:
        threshold = self.interval.threshold_count
        truth, distinct = _interval_truth(self._pieces, threshold)
        self._distinct.append(distinct)
        self._perfect_profiles.append(IntervalProfile(
            index=self._intervals,
            candidates=truth.candidates,
            events_observed=events_observed))
        self._session._score_interval(self._results, truth, threshold)
        self._pieces = []
        self._pending = 0
        self._intervals += 1

    def flush(self) -> bool:
        """Close the open interval early, if any events are pending.

        The flushed interval is scored against exact truth over its
        partial event count, with the full interval's candidate
        threshold (``events_observed`` records the true size).  Used on
        stream close / graceful server shutdown so trailing events are
        reported rather than silently dropped.  Returns whether an
        interval was flushed.
        """
        if not self._pending:
            return False
        self._close_interval(self._pending)
        return True

    def snapshot(self) -> SessionResult:
        """Current results over all *completed* intervals.

        The returned object shares state with the feeder; treat it as
        a read-only view.
        """
        return SessionResult(
            interval=self.interval,
            results=self._results,
            perfect_profiles=self._perfect_profiles,
            distinct_per_interval=self._distinct,
        )

    def finish(self, flush_partial: bool = False) -> SessionResult:
        """Stop feeding and return the final results.

        With ``flush_partial`` the open interval (if any) is closed and
        scored; otherwise trailing events are discarded, matching
        :meth:`ProfilingSession.run` (the paper's metrics are defined
        over full intervals only).
        """
        if flush_partial:
            self.flush()
        else:
            self._pieces = []
            self._pending = 0
        return self.snapshot()

    def trim(self, max_profiles: int) -> None:
        """Bound memory on endless streams: keep only the most recent
        *max_profiles* per-interval profiles (error summaries still
        cover every interval)."""
        if max_profiles < 0:
            raise ValueError(f"max_profiles must be >= 0, "
                             f"got {max_profiles}")
        del self._perfect_profiles[:max(
            0, len(self._perfect_profiles) - max_profiles)]
        for result in self._results.values():
            del result.profiles[:max(0, len(result.profiles)
                                     - max_profiles)]


def feed_many(items: Sequence[Tuple["SessionFeeder",
                                    np.ndarray, np.ndarray]],
              runner: Optional[BatchedKernelRunner] = None) -> List[int]:
    """Feed one batch into each of several feeders, in turn.

    *items* holds ``(feeder, pcs, values)`` triples.  Equivalent to
    calling ``feeder.feed(pcs, values)`` on each in order, except that
    one *runner* issues and counts the kernel calls of every feeder
    (by default each feeder's own runner does).  This is the profile
    service's per-shard fold: a worker advances every stream it holds
    a batch for in one tick, one compiled-loop call per
    interval-bounded piece of each stream.  Returns the number of
    intervals each item's batch closed, in *items* order.
    """
    return [feeder._feed(pcs, values,
                         feeder.runner if runner is None else runner)
            for feeder, pcs, values in items]


class _IntervalTruth:
    """Ground truth for one interval, over its exact pair counts.

    ``candidates`` maps every above-threshold tuple to its exact count,
    ``pc``-major; :meth:`counts_for` extends that with the true
    (sub-threshold) counts of whatever tuples a hardware profile
    reported, which is all the error metric ever looks up.
    """

    def __init__(self, counts: PairCounts, threshold: int) -> None:
        self._counts = counts
        pcs, values, over = counts.at_least(threshold)
        self.candidates: Dict[ProfileTuple, int] = dict(zip(
            zip(pcs.tolist(), values.tolist()), over.tolist()))

    def lookup(self, event: ProfileTuple) -> int:
        """Exact count of *event* in the interval (0 if absent)."""
        return self._counts.lookup([event])[0]

    def counts_for(self, profile: IntervalProfile
                   ) -> Dict[ProfileTuple, int]:
        """True counts covering the error metric's candidate universe."""
        true_counts = dict(self.candidates)
        missing = [event for event in profile.candidates
                   if event not in true_counts]
        if missing:
            true_counts.update(zip(missing, self._counts.lookup(missing)))
        return true_counts


def _interval_truth(pieces: List[Tuple[np.ndarray, np.ndarray]],
                    threshold: int) -> Tuple[_IntervalTruth, int]:
    """Exact per-interval counting: the compiled pair table, or one
    NumPy sort without a compiler
    (:func:`~repro.core.kernels.count_pairs`)."""
    counts = count_pairs(pieces)
    return _IntervalTruth(counts, threshold), counts.distinct


def profile_stream(config: ProfilerConfig,
                   source,
                   max_intervals: Optional[int] = None) -> SessionResult:
    """One-shot convenience: profile *source* under one configuration."""
    return ProfilingSession(config).run(source, max_intervals=max_intervals)
