"""The multi-hash interval profiler (Section 6).

``n`` tagless counter tables, each with its own independent hash
function, share the total counter budget (``2K/n`` entries per table in
the paper's study).  A tuple is promoted to the accumulator only when
**all** of its ``n`` counters have reached the candidate threshold; two
tuples that alias in one table almost certainly diverge in another, so
false positives fall roughly as the n-th power of the single-table
aliasing probability (Section 6.2, reproduced in
:mod:`repro.core.theory`).

Optimizations:

* **conservative update** (``C1``, after Estan & Varghese) -- only the
  counter(s) holding the minimum of the tuple's ``n`` values are
  incremented.  Without aliasing all ``n`` counters are identical, so
  nothing is lost; with aliasing the inflated counters stop absorbing
  increments, sharply reducing over-count error.
* **immediate reset** (``R1``) -- all ``n`` counters are zeroed on
  promotion.  The paper finds this *hurts* the multi-hash design (it
  manufactures false negatives for tuples that legitimately shared
  counters), so the best configuration is ``C1-R0``.

Shielding and retaining behave exactly as in the single-hash design.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .base import HardwareProfiler
from .config import ProfilerConfig
from .hashing import HashFunctionFamily, TupleHashFunction
from .tables import AccumulatorTable, CounterTable
from .tuples import ProfileTuple


class MultiHashProfiler(HardwareProfiler):
    """Interval-based profiler with ``n`` hash tables (Figure 8).

    With ``num_tables == 1`` this degenerates to the single-hash design
    (and is tested to agree with :class:`SingleHashProfiler` when
    conservative update is off, since with one table C1 == C0).
    """

    def __init__(self, config: ProfilerConfig,
                 hash_functions: Optional[Sequence[TupleHashFunction]] = None
                 ) -> None:
        super().__init__(config.interval)
        self.config = config
        if hash_functions is None:
            family = HashFunctionFamily(config.index_bits,
                                        seed=config.hash_seed)
            hash_functions = family.take(config.num_tables)
        if len(hash_functions) != config.num_tables:
            raise ValueError(
                f"expected {config.num_tables} hash functions, got "
                f"{len(hash_functions)}")
        for function in hash_functions:
            if function.table_size != config.entries_per_table:
                raise ValueError(
                    f"hash function addresses {function.table_size} "
                    f"entries but each table has "
                    f"{config.entries_per_table}")
        self.hash_functions = list(hash_functions)
        self.tables: List[CounterTable] = [
            CounterTable(config.entries_per_table, config.counter_bits)
            for _ in range(config.num_tables)
        ]
        self.accumulator = AccumulatorTable(config.accumulator_capacity)
        self._index_cache: Dict[ProfileTuple, Tuple[int, ...]] = {}

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

        if self.config.shielding and resident:
            self.accumulator.record_hit(event, threshold)
            self.stats.accumulator_hits += 1
            return

        indices = self._indices_of(event)
        tables = self.tables
        if self.config.conservative_update:
            # Increment only the minimum counter(s); ties all increment.
            values = [tables[t].read(indices[t])
                      for t in range(len(tables))]
            minimum = min(values)
            estimate = min(minimum + 1, tables[0].max_value)
            for t, value in enumerate(values):
                if value == minimum:
                    tables[t].increment(indices[t])
                    self.stats.hash_updates += 1
        else:
            minimum = tables[0].max_value
            estimate = tables[0].max_value
            for t in range(len(tables)):
                before = tables[t].read(indices[t])
                after = tables[t].increment(indices[t])
                self.stats.hash_updates += 1
                if before < minimum:
                    minimum = before
                if after < estimate:
                    estimate = after

        # Promotion fires when this event makes the minimum counter
        # *cross* the threshold ("only when all of its corresponding
        # counters ... cross the threshold candidate value", Section
        # 6.1).  Transition detection -- not a plain >= check -- is
        # what keeps tuples whose counters were pushed over the
        # threshold by earlier aliases from piggybacking in wholesale;
        # when aliases push the minimum *past* the threshold between a
        # tuple's occurrences, the crossing is missed entirely and the
        # tuple becomes a false negative (the Figure 12 failure mode of
        # many-table configurations).
        if minimum < threshold <= estimate and not resident:
            self._promote(event, indices, estimate)

        if not self.config.shielding and resident:
            self.accumulator.record_hit(event, threshold)
            self.stats.accumulator_hits += 1

    def observe_chunk(self, events, index_lists=None):
        """Batched :meth:`observe` with precomputed per-table indices.

        Behaviourally identical to per-event :meth:`observe` (verified
        by the equivalence tests); the tight loop avoids per-event
        Python hashing, the dominant cost on million-event intervals.
        """
        if index_lists is None:
            for event in events:
                self.observe(event)
            return
        if len(index_lists) != len(self.tables):
            raise ValueError(
                f"expected {len(self.tables)} index lists, got "
                f"{len(index_lists)}")
        threshold = self.interval.threshold_count
        resident = self.accumulator.raw_entries()
        counter_lists = [table._counters for table in self.tables]
        max_value = self.tables[0].max_value
        shielding = self.config.shielding
        resetting = self.config.resetting
        conservative = self.config.conservative_update
        num_tables = len(counter_lists)
        table_range = range(num_tables)
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
            if conservative:
                values = [counter_lists[t][index_lists[t][position]]
                          for t in table_range]
                minimum = min(values)
                estimate = minimum + 1
                if estimate > max_value:
                    estimate = max_value
                for t in table_range:
                    if values[t] == minimum:
                        index = index_lists[t][position]
                        bumped = counter_lists[t][index] + 1
                        if bumped > max_value:
                            bumped = max_value
                        counter_lists[t][index] = bumped
                        hash_updates += 1
            else:
                minimum = max_value
                estimate = max_value
                for t in table_range:
                    index = index_lists[t][position]
                    before = counter_lists[t][index]
                    bumped = before + 1
                    if bumped > max_value:
                        bumped = max_value
                    counter_lists[t][index] = bumped
                    hash_updates += 1
                    if before < minimum:
                        minimum = before
                    if bumped < estimate:
                        estimate = bumped
            if minimum < threshold <= estimate and entry is None:
                if self.accumulator.insert(event, initial_count=estimate):
                    stats.promotions += 1
                    if resetting:
                        for t in table_range:
                            counter_lists[t][index_lists[t][position]] = 0
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

    def estimate(self, event: ProfileTuple) -> int:
        """Current sketch estimate for *event*: the minimum counter.

        This is the count-min estimate; exposed for the extension
        examples that use the multi-hash front end as a standalone
        frequency sketch.
        """
        indices = self._indices_of(event)
        return min(self.tables[t].read(indices[t])
                   for t in range(len(self.tables)))

    def _promote(self, event: ProfileTuple, indices: Tuple[int, ...],
                 estimate: int) -> None:
        if event in self.accumulator:
            return
        if self.accumulator.insert(event, initial_count=estimate):
            self.stats.promotions += 1
            if self.config.resetting:
                for t, index in enumerate(indices):
                    self.tables[t].reset(index)
        else:
            self.stats.rejected_promotions += 1

    def _indices_of(self, event: ProfileTuple) -> Tuple[int, ...]:
        cache = self._index_cache
        indices = cache.get(event)
        if indices is None:
            indices = tuple(function(event)
                            for function in self.hash_functions)
            cache[event] = indices
        return indices

    def _close_interval(self) -> Dict[ProfileTuple, int]:
        report = self.accumulator.end_interval(
            self.interval.threshold_count, retaining=self.config.retaining)
        for table in self.tables:
            table.flush()
        self.stats.evictions = self.accumulator.evictions
        return report


def build_profiler(config: ProfilerConfig) -> HardwareProfiler:
    """Construct the profiler matching *config*.

    Single-table configurations build a single-hash profiler
    (conservative update is meaningless with one table and must be
    off); multi-table configurations build a multi-hash profiler.
    ``config.requested_backend`` selects between the scalar reference
    classes and the bit-identical compiled loop of
    :mod:`repro.core.kernels`.  ``auto`` takes the compiled loop when it
    can be built; an explicit ``vectorized`` raises when it cannot.
    Counters too wide for the loop's int64 tables build scalar.
    """
    from . import kernels
    from .single_hash import SingleHashProfiler

    single = config.num_tables == 1 and not config.conservative_update
    backend = config.requested_backend
    if (backend != "scalar"
            and config.counter_bits <= kernels.MAX_KERNEL_COUNTER_BITS
            and (backend == "vectorized" or kernels.library() is not None)):
        return (kernels.VectorizedSingleHashProfiler(config) if single
                else kernels.VectorizedMultiHashProfiler(config))
    if single:
        return SingleHashProfiler(config)
    return MultiHashProfiler(config)
