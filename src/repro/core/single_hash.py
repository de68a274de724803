"""The single-hash interval profiler (Section 5).

One tagless counter table filters the event stream; an accumulator
table captures tuples whose counter crosses the candidate threshold.
Three mechanisms from the paper are implemented:

* **shielding** (Section 5.2) -- once a tuple is resident in the
  accumulator it is counted there directly and never touches the hash
  table again that interval, relieving pressure on the shared counters;
* **retaining** (``P1``, Section 5.4.1) -- above-threshold accumulator
  entries survive into the next interval (replaceable, count zeroed) so
  recurring candidates stay shielded from the first event of the next
  interval;
* **resetting** (``R1``, Section 5.4.2) -- the hash counter is zeroed
  when its tuple is promoted, so other tuples aliasing onto it must
  earn the threshold on their own, cutting false positives at the cost
  of occasional false negatives for the aliased tuples.

At the end of every interval the hash table is flushed.
"""

from __future__ import annotations

from typing import Dict, Optional

from .base import HardwareProfiler
from .config import ProfilerConfig
from .hashing import HashFunctionFamily, TupleHashFunction
from .tables import AccumulatorTable, CounterTable
from .tuples import ProfileTuple


class SingleHashProfiler(HardwareProfiler):
    """Interval-based profiler with one tagless hash table (Figure 2)."""

    def __init__(self, config: ProfilerConfig,
                 hash_function: Optional[TupleHashFunction] = None) -> None:
        if config.num_tables != 1:
            raise ValueError(
                f"SingleHashProfiler requires num_tables == 1, got "
                f"{config.num_tables}; use MultiHashProfiler instead")
        super().__init__(config.interval)
        self.config = config
        self.hash_function = hash_function or HashFunctionFamily(
            config.index_bits, seed=config.hash_seed)[0]
        if self.hash_function.table_size != config.entries_per_table:
            raise ValueError(
                f"hash function addresses {self.hash_function.table_size} "
                f"entries but the table has {config.entries_per_table}")
        self.table = CounterTable(config.entries_per_table,
                                  config.counter_bits)
        self.accumulator = AccumulatorTable(config.accumulator_capacity)
        self._index_cache: Dict[ProfileTuple, int] = {}

    @property
    def name(self) -> str:
        return self.config.label

    def observe(self, event: ProfileTuple) -> None:
        self._count_event()
        threshold = self.interval.threshold_count

        # Residency is decided before the event can promote itself: a
        # promotion's initial count already includes this occurrence,
        # so the unshielded hit below must not count it again.
        resident = event in self.accumulator

        # Shielded path: resident tuples are counted associatively and
        # bypass the hash table (Section 5.2).
        if self.config.shielding and resident:
            self.accumulator.record_hit(event, threshold)
            self.stats.accumulator_hits += 1
            return

        index = self._index_of(event)
        count = self.table.increment(index)
        self.stats.hash_updates += 1
        if count >= threshold and not resident:
            self._promote(event, index, count)

        # Without shielding (ablation only), resident tuples also count
        # in the accumulator so their reported frequency stays exact.
        if not self.config.shielding and resident:
            self.accumulator.record_hit(event, threshold)
            self.stats.accumulator_hits += 1

    def _promote(self, event: ProfileTuple, index: int, count: int) -> None:
        """Move *event* into the accumulator once its counter crosses."""
        if event in self.accumulator:
            return
        if self.accumulator.insert(event, initial_count=count):
            self.stats.promotions += 1
            if self.config.resetting:
                self.table.reset(index)
        else:
            self.stats.rejected_promotions += 1

    def observe_chunk(self, events, index_lists=None):
        """Batched :meth:`observe` with precomputed hash indices.

        Behaviourally identical to calling :meth:`observe` per event
        (verified by the equivalence tests); exists because per-event
        Python hashing dominates runtime on million-event intervals.
        """
        if index_lists is None:
            for event in events:
                self.observe(event)
            return
        (indices,) = index_lists
        threshold = self.interval.threshold_count
        resident = self.accumulator.raw_entries()
        counters = self.table._counters
        max_value = self.table.max_value
        shielding = self.config.shielding
        resetting = self.config.resetting
        stats = self.stats
        accumulator_hits = 0
        hash_updates = 0
        for position, event in enumerate(events):
            entry = resident.get(event)
            if shielding and entry is not None:
                entry.count += 1
                if entry.replaceable and entry.count >= threshold:
                    entry.replaceable = False
                accumulator_hits += 1
                continue
            index = indices[position]
            count = counters[index] + 1
            if count > max_value:
                count = max_value
            counters[index] = count
            hash_updates += 1
            if count >= threshold and entry is None:
                if self.accumulator.insert(event, initial_count=count):
                    stats.promotions += 1
                    if resetting:
                        counters[index] = 0
                else:
                    stats.rejected_promotions += 1
            if not shielding and entry is not None:
                entry.count += 1
                if entry.replaceable and entry.count >= threshold:
                    entry.replaceable = False
                accumulator_hits += 1
        stats.accumulator_hits += accumulator_hits
        stats.hash_updates += hash_updates
        stats.events += len(events)
        self._events_this_interval += len(events)

    def _index_of(self, event: ProfileTuple) -> int:
        cache = self._index_cache
        index = cache.get(event)
        if index is None:
            index = self.hash_function(event)
            cache[event] = index
        return index

    def _close_interval(self) -> Dict[ProfileTuple, int]:
        report = self.accumulator.end_interval(
            self.interval.threshold_count, retaining=self.config.retaining)
        self.table.flush()
        self.stats.evictions = self.accumulator.evictions
        return report
