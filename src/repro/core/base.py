"""The profiler interface and per-interval results.

Every profiler -- perfect, single-hash, multi-hash, and the stratified
sampler baseline -- consumes one :data:`~repro.core.tuples.ProfileTuple`
per :meth:`HardwareProfiler.observe` call and, when asked to close an
interval, returns an :class:`IntervalProfile`: the set of candidate
tuples it reports for that interval together with their counted
frequencies.  Error analysis (:mod:`repro.metrics`) compares these
profiles against the perfect profiler's.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .config import IntervalSpec
from .tuples import ProfileTuple


@dataclass
class IntervalProfile:
    """What one profiler reported for one profile interval.

    Attributes
    ----------
    index:
        Zero-based interval ordinal within the run (the paper's
        "profile cycle").
    candidates:
        Reported candidate tuples with the frequency the profiler
        counted for each (``f_h`` in the paper's error formula; for the
        perfect profiler these are the true frequencies ``f_p``).
    events_observed:
        Number of events fed during the interval (equals the interval
        length except possibly for a truncated final interval).
    """

    index: int
    candidates: Dict[ProfileTuple, int]
    events_observed: int

    def frequency(self, event: ProfileTuple) -> int:
        """Reported frequency of *event* (0 when not reported).

        The paper assigns ``f_h = 0`` to candidates missing from the
        hardware profile (false negatives), which this default mirrors.
        """
        return self.candidates.get(event, 0)

    def __len__(self) -> int:
        return len(self.candidates)


@dataclass
class ProfilerStats:
    """Cumulative diagnostics over a profiler's whole run.

    These are not part of the paper's metrics but make the mechanisms
    observable: how often shielding short-circuits the hash tables, how
    often promotion fires, and whether the accumulator's worst-case
    sizing bound was ever stressed.
    """

    events: int = 0
    accumulator_hits: int = 0
    hash_updates: int = 0
    promotions: int = 0
    rejected_promotions: int = 0
    evictions: int = 0
    intervals: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for report tables."""
        return {
            "events": self.events,
            "accumulator_hits": self.accumulator_hits,
            "hash_updates": self.hash_updates,
            "promotions": self.promotions,
            "rejected_promotions": self.rejected_promotions,
            "evictions": self.evictions,
            "intervals": self.intervals,
        }


class HardwareProfiler(abc.ABC):
    """Abstract interval-based profiler.

    Subclasses implement :meth:`observe` (one event) and
    :meth:`_close_interval` (report candidates and reset interval
    state).  The base class tracks interval accounting so all profilers
    agree on interval boundaries.
    """

    #: True when :meth:`observe_array_chunk` is the compiled per-event
    #: loop (see :mod:`repro.core.kernels`); the session feeder then
    #: skips materializing per-event tuple lists entirely.
    supports_array_chunks: bool = False

    def __init__(self, interval: IntervalSpec) -> None:
        self.interval = interval
        self._interval_index = 0
        self._events_this_interval = 0
        self.stats = ProfilerStats()

    @property
    def name(self) -> str:
        """Human-readable profiler label for reports."""
        return type(self).__name__

    @property
    def backend(self) -> str:
        """The path this profiler was built on: ``vectorized`` for the
        compiled loop, ``scalar`` otherwise."""
        return "vectorized" if self.supports_array_chunks else "scalar"

    @abc.abstractmethod
    def observe(self, event: ProfileTuple) -> None:
        """Feed one profiling event.

        Implementations must call :meth:`_count_event` exactly once.
        """

    @abc.abstractmethod
    def _close_interval(self) -> Dict[ProfileTuple, int]:
        """Report this interval's candidates and reset interval state."""

    def _count_event(self) -> None:
        self._events_this_interval += 1
        self.stats.events += 1

    def end_interval(self) -> IntervalProfile:
        """Close the current interval and return its profile.

        The caller (normally :class:`~repro.profiling.session.ProfilingSession`)
        decides where interval boundaries fall; the profiler itself
        never ends intervals implicitly, mirroring a hardware interval
        counter external to the tables.
        """
        profile = IntervalProfile(
            index=self._interval_index,
            candidates=self._close_interval(),
            events_observed=self._events_this_interval,
        )
        self._interval_index += 1
        self._events_this_interval = 0
        self.stats.intervals += 1
        return profile

    def observe_chunk(self, events: List[ProfileTuple],
                      index_lists: Optional[List[List[int]]] = None) -> None:
        """Feed a batch of events, optionally with precomputed indices.

        *index_lists* carries one list per hash table, each holding the
        table index of every event in *events*, computed vectorized by
        the session (see
        :meth:`repro.core.hashing.TupleHashFunction.index_array`).  The
        base implementation ignores the indices and loops
        :meth:`observe`; the hash-table profilers override this with a
        tight loop that is behaviourally identical (tested) but avoids
        per-event Python hashing.
        """
        for event in events:
            self.observe(event)

    def observe_array_chunk(self, pcs, values) -> None:
        """Feed parallel ``uint64`` PC/value arrays.

        The chunk never spans an interval boundary (the session feeder
        guarantees this).  The base implementation loops
        :meth:`observe`; the compiled-loop profilers override it and
        advertise it via :attr:`supports_array_chunks`.
        """
        for pc, value in zip(pcs.tolist(), values.tolist()):
            self.observe((pc, value))

    def run(self, events: Iterable[ProfileTuple]) -> List[IntervalProfile]:
        """Convenience driver: profile a finite stream.

        Feeds *events*, closing an interval every
        ``self.interval.length`` events.  A trailing partial interval is
        closed as well (with ``events_observed`` recording its true
        size) so short streams still produce a report.
        """
        profiles: List[IntervalProfile] = []
        length = self.interval.length
        pending = 0
        for event in events:
            self.observe(event)
            pending += 1
            if pending == length:
                profiles.append(self.end_interval())
                pending = 0
        if pending:
            profiles.append(self.end_interval())
        return profiles
