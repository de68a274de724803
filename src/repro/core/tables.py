"""Hardware table structures: tagless counter tables and the accumulator.

Two structures make up every profiler in the paper:

* :class:`CounterTable` -- a tagless, direct-indexed array of saturating
  counters (the "hash table" of Figures 2 and 8).  Having no tags it is
  cheap (3-byte counters in the paper) but suffers aliasing.
* :class:`AccumulatorTable` -- a small fully-associative, tagged table
  that accumulates exact counts for tuples promoted out of the counter
  table(s).  It implements the paper's *shielding* (member tuples bypass
  the hash tables), *retaining* (above-threshold entries survive into
  the next interval, replaceable, with counts reset to zero) and the
  allocation policy "empty entries are allocated first followed by
  replaceable entries" (Section 5.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .tuples import ProfileTuple


class CounterTable:
    """A tagless table of saturating counters.

    Models the paper's hash table: ``size`` counters of ``counter_bits``
    bits each.  Counters saturate at their maximum value instead of
    wrapping, as a hardware counter would be built to do.
    """

    __slots__ = ("size", "counter_bits", "max_value", "_counters")

    def __init__(self, size: int, counter_bits: int = 24) -> None:
        if size <= 0:
            raise ValueError(f"table size must be positive, got {size}")
        if counter_bits <= 0:
            raise ValueError(
                f"counter_bits must be positive, got {counter_bits}")
        self.size = size
        self.counter_bits = counter_bits
        self.max_value = (1 << counter_bits) - 1
        self._counters: List[int] = [0] * size

    def read(self, index: int) -> int:
        """Current value of the counter at *index*."""
        return self._counters[index]

    def increment(self, index: int, amount: int = 1) -> int:
        """Add *amount* to the counter at *index*, saturating.

        Returns the post-increment value.
        """
        value = self._counters[index] + amount
        if value > self.max_value:
            value = self.max_value
        self._counters[index] = value
        return value

    def reset(self, index: int) -> None:
        """Zero one counter (the `resetting` optimization)."""
        self._counters[index] = 0

    def flush(self) -> None:
        """Zero every counter (done at the end of each interval)."""
        for index in range(self.size):
            self._counters[index] = 0

    def occupancy(self) -> int:
        """Number of non-zero counters (diagnostic)."""
        return sum(1 for value in self._counters if value)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(self._counters)


@dataclass
class AccumulatorEntry:
    """One fully-associative accumulator entry.

    ``replaceable`` distinguishes freshly promoted entries (pinned for
    the rest of the interval) from entries retained across an interval
    boundary, which may be evicted until they re-cross the threshold.
    ``stamp`` is a monotonic allocation counter used to break eviction
    ties (oldest first).
    """

    event: ProfileTuple
    count: int
    replaceable: bool
    stamp: int


class AccumulatorTable:
    """The fully-associative candidate table of Figures 2 and 8.

    The capacity is normally ``floor(1 / threshold)`` so that true
    candidates can never overflow it (Section 5.1); promotion attempts
    beyond capacity when no entry is replaceable are rejected and counted
    in :attr:`rejected_inserts`.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: Dict[ProfileTuple, AccumulatorEntry] = {}
        self._next_stamp = 0
        #: Promotions dropped because the table was full of pinned entries.
        self.rejected_inserts = 0
        #: Retained entries evicted to make room for a new promotion.
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, event: ProfileTuple) -> bool:
        return event in self._entries

    def lookup(self, event: ProfileTuple) -> Optional[AccumulatorEntry]:
        """Associative lookup; ``None`` on a miss."""
        return self._entries.get(event)

    def record_hit(self, event: ProfileTuple, threshold_count: int) -> int:
        """Count one occurrence of a resident tuple.

        A retained (replaceable) entry whose count re-crosses
        *threshold_count* is unmarked as replaceable for the rest of the
        interval (Section 5.4.1).  Returns the new count.
        """
        entry = self._entries[event]
        entry.count += 1
        if entry.replaceable and entry.count >= threshold_count:
            entry.replaceable = False
        return entry.count

    def insert(self, event: ProfileTuple, initial_count: int) -> bool:
        """Promote *event* into the table, pinned for this interval.

        Empty slots are used first; otherwise the lowest-count (then
        oldest) replaceable entry is evicted.  Returns ``False`` when the
        table is full of pinned entries and the promotion is dropped
        ("if there are no more free entries ... the event is not put
        into the accumulator table", Section 5.2).
        """
        if event in self._entries:
            raise ValueError(f"tuple {event!r} is already resident")
        if len(self._entries) >= self.capacity:
            victim = self._pick_victim()
            if victim is None:
                self.rejected_inserts += 1
                return False
            del self._entries[victim.event]
            self.evictions += 1
        self._entries[event] = AccumulatorEntry(
            event=event, count=initial_count, replaceable=False,
            stamp=self._next_stamp)
        self._next_stamp += 1
        return True

    def _pick_victim(self) -> Optional[AccumulatorEntry]:
        """Lowest-count, then oldest, replaceable entry; ``None`` if all
        entries are pinned."""
        victim: Optional[AccumulatorEntry] = None
        for entry in self._entries.values():
            if not entry.replaceable:
                continue
            if (victim is None
                    or entry.count < victim.count
                    or (entry.count == victim.count
                        and entry.stamp < victim.stamp)):
                victim = entry
        return victim

    def end_interval(self, threshold_count: int,
                     retaining: bool) -> Dict[ProfileTuple, int]:
        """Close the interval: report candidates and prepare the table.

        Entries with ``count >= threshold_count`` are the interval's
        reported candidates.  With *retaining* those entries stay
        resident -- marked replaceable, counts reset to zero -- and
        everything below threshold is flushed; without retaining the
        whole table is flushed (Section 5.4.1).

        Returns the reported ``{tuple: count}`` profile.
        """
        report = {entry.event: entry.count
                  for entry in self._entries.values()
                  if entry.count >= threshold_count}
        if retaining:
            flushed = [event for event, entry in self._entries.items()
                       if entry.count < threshold_count]
            for event in flushed:
                del self._entries[event]
            for entry in self._entries.values():
                entry.count = 0
                entry.replaceable = True
        else:
            self._entries.clear()
        return report

    def resident_events(self) -> Tuple[ProfileTuple, ...]:
        """Snapshot of the tuples currently resident (diagnostic)."""
        return tuple(self._entries)

    def raw_entries(self) -> Dict[ProfileTuple, AccumulatorEntry]:
        """The live associative store, for the profilers' chunked fast
        path.  Callers must preserve the table's invariants: mutate
        counts/flags only through the semantics of :meth:`record_hit`,
        and never add or remove entries directly."""
        return self._entries
