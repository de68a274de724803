"""NumPy batch kernels for the hash-table profilers.

The scalar profilers (:mod:`repro.core.single_hash`,
:mod:`repro.core.multi_hash`) walk one Python loop iteration per event,
which caps throughput far below the "fast as the hardware allows" goal
of the ROADMAP.  These kernels process whole ``(pcs, values)`` uint64
chunks with NumPy and are **bit-identical** to the scalar reference --
same candidate sets, same counts, same :class:`ProfilerStats`, proven
by the differential parity harness (``tests/test_kernel_parity.py``).

The obstacle to vectorizing a profiler is that promotions mutate shared
state mid-stream: a promoted tuple becomes shielded (later events stop
hashing), may evict a retained entry, and under ``R1`` resets its
counter(s).  The kernels therefore use a **segmented** design:

1. Snapshot residency and counters at the start of a window.
2. From the snapshot alone, compute for every event the counter value
   it would see -- occurrence numbering turns "counter after this
   event" into ``min(base + k, max)`` where ``k`` is the event's rank
   among equal indices -- and locate the *first* promotion attempt.
3. Everything strictly before that boundary is state-change free, so
   counter bumps and accumulator hits are applied in bulk (their order
   within the segment is immaterial: counts are additive and the
   retained->pinned flag only ever flips one way).
4. The boundary event itself runs through an exact scalar step
   (:meth:`observe` semantics, including victim selection and
   resetting), then the remainder of the window is re-segmented.

Two refinements keep pathological streams fast:

* **Saturated accumulator short-cut** -- once the accumulator is full
  of pinned entries, rejection is an absorbing state for the rest of
  the interval (pins never clear mid-interval and entries only leave
  by being evicted, which requires a successful insert).  All attempts
  in the window are then counted as rejections in bulk, with no
  segment breaks at all.
* **Conservative-update fixpoint solving** (``C1``) -- only the
  minimum counter(s) are bumped, which serializes events through the
  counters they share.  Writing the update as
  ``c_t <- max(c_t, min(m + 1, cap))`` shows the minimum ``M`` each
  event observes satisfies an *acyclic* min-max recurrence over
  per-counter chains; :class:`_ConservativeSpan` solves it exactly
  with a monotone Jacobi iteration whose inner step is one segmented
  prefix-max scan (details on the class).  The solved minima give the
  promotion boundaries, the per-table update counts, and the final
  counters, all in bulk.

A window that degenerates (more than :data:`MAX_WINDOW_BOUNDARIES`
promotions) falls back to the scalar step loop for its remainder,
bounding the worst case at scalar speed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import ProfilerConfig
from .hashing import TupleHashFunction
from .multi_hash import MultiHashProfiler
from .single_hash import SingleHashProfiler
from .tables import AccumulatorEntry, AccumulatorTable, CounterTable
from .tuples import ProfileTuple

#: Structured dtype giving tuples a total order for ``numpy`` sorting.
PAIR_DTYPE = np.dtype([("p", np.uint64), ("v", np.uint64)])

#: Events re-segmented together.  Each promotion boundary restarts the
#: remainder of its window, so the window size bounds the per-boundary
#: recompute cost; 4K keeps that cost small while amortizing the NumPy
#: call overhead over thousands of events.
WINDOW_EVENTS = 4096

#: Window size for the conservative-update (``C1``) path.  Jacobi
#: convergence needs one pass per level of the longest dependency
#: chain through shared counters, and chains deepen with the window,
#: so total solver work scales superlinearly in window size: smaller
#: windows win even though they amortize call overhead less well.
C1_WINDOW_EVENTS = 768

#: Promotion boundaries tolerated per window before its remainder is
#: handed to the exact scalar loop (degenerate streams promote on
#: nearly every event; re-segmenting would go quadratic).
MAX_WINDOW_BOUNDARIES = 24

#: Widest saturating counter the int64 kernels can hold without
#: overflow headroom for in-window occurrence offsets.
MAX_KERNEL_COUNTER_BITS = 62

#: Jacobi passes from above before the C1 fixpoint solver switches to
#: sandwich certification.  Convergence needs as many passes as the
#: longest dependency chain through shared counters, which stays short
#: once tables are warm but can spike on cold, heavily aliased spans.
MAX_SOLVER_PASSES = 24

#: Passes from below used to bracket (and thereby certify) events
#: before the sequential straggler walk takes over.
CERTIFY_PASSES = 6

#: C1 hash spans smaller than this run through the scalar loop; the
#: solver's argsort/scan setup dominates tiny spans.
MIN_SOLVER_SPAN = 32


class NumpyCounterTable(CounterTable):
    """A :class:`CounterTable` backed by an ``int64`` ndarray.

    Scalar accessors keep exact :class:`CounterTable` semantics (and
    plain-``int`` returns) so per-event code paths still work; the
    kernels index :attr:`array` directly.
    """

    def __init__(self, size: int, counter_bits: int = 24) -> None:
        if counter_bits > MAX_KERNEL_COUNTER_BITS:
            raise ValueError(
                f"NumpyCounterTable holds counters in int64; "
                f"counter_bits must be <= {MAX_KERNEL_COUNTER_BITS}, "
                f"got {counter_bits}")
        super().__init__(size, counter_bits)
        self._counters = np.zeros(size, dtype=np.int64)

    @property
    def array(self) -> np.ndarray:
        """The raw counter array (kernel fast path)."""
        return self._counters

    def read(self, index: int) -> int:
        return int(self._counters[index])

    def increment(self, index: int, amount: int = 1) -> int:
        value = int(self._counters[index]) + amount
        if value > self.max_value:
            value = self.max_value
        self._counters[index] = value
        return value

    def flush(self) -> None:
        self._counters[:] = 0

    def occupancy(self) -> int:
        return int(np.count_nonzero(self._counters))

    def __iter__(self):
        return iter(self._counters.tolist())


def _dedupe_pairs(pcs: np.ndarray,
                  values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique ``(pc, value)`` pairs plus per-event tuple ids.

    Equivalent to ``np.unique(structured, return_inverse=True)`` but
    via ``lexsort`` over the parallel arrays, which is measurably
    faster than sorting a structured dtype.  When both fields fit in
    32 bits (the common case for real traces) the pair packs into a
    single ``uint64`` key whose numeric order matches the structured
    order, and one plain sort replaces the two lexsort passes.
    """
    if (pcs.size and int(pcs.max()) < 1 << 32
            and int(values.max()) < 1 << 32):
        packed = (pcs << np.uint64(32)) | values
        unique_keys, event_ids = np.unique(packed, return_inverse=True)
        unique = np.empty(len(unique_keys), dtype=PAIR_DTYPE)
        unique["p"] = unique_keys >> np.uint64(32)
        unique["v"] = unique_keys & np.uint64(0xFFFFFFFF)
        return unique, event_ids.astype(np.int64, copy=False)
    order = np.lexsort((values, pcs))
    sorted_pcs = pcs[order]
    sorted_values = values[order]
    starts = np.empty(len(pcs), dtype=bool)
    starts[0] = True
    np.logical_or(sorted_pcs[1:] != sorted_pcs[:-1],
                  sorted_values[1:] != sorted_values[:-1],
                  out=starts[1:])
    group = np.cumsum(starts) - 1
    event_ids = np.empty(len(pcs), dtype=np.int64)
    event_ids[order] = group
    unique = np.empty(int(group[-1]) + 1, dtype=PAIR_DTYPE)
    unique["p"] = sorted_pcs[starts]
    unique["v"] = sorted_values[starts]
    return unique, event_ids


def count_pairs(pieces: Sequence[Tuple[np.ndarray, np.ndarray]]
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique ``(pc, value)`` pairs over *pieces*, with counts.

    Exact counting for the perfect profiler: the pairs of every
    ``(pcs, values)`` piece of ``uint64`` arrays, sorted ``pc``-major
    into a ``PAIR_DTYPE`` array, plus each pair's ``int64`` occurrence
    count.  One ``lexsort`` over the two fields, as in
    :func:`_dedupe_pairs`; the counts are the run lengths of the sorted
    pairs, so no per-event tuple-id array is ever built.
    """
    pieces = [(pcs, values) for pcs, values in pieces if len(pcs)]
    if not pieces:
        return np.empty(0, dtype=PAIR_DTYPE), np.empty(0, dtype=np.int64)
    pcs = np.concatenate([pcs for pcs, _ in pieces])
    values = np.concatenate([values for _, values in pieces])
    order = np.lexsort((values, pcs))
    # Rebinding frees each unsorted field once it is gathered.
    pcs = pcs[order]
    values = values[order]
    starts = np.empty(len(pcs), dtype=bool)
    starts[0] = True
    np.logical_or(pcs[1:] != pcs[:-1], values[1:] != values[:-1],
                  out=starts[1:])
    firsts = np.flatnonzero(starts)
    unique = np.empty(len(firsts), dtype=PAIR_DTYPE)
    unique["p"] = pcs[firsts]
    unique["v"] = values[firsts]
    return unique, np.diff(firsts, append=len(pcs))


def _stable_sort(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, keys[order])`` for a stable sort of non-negative *keys*.

    Packs ``key * n + position`` into one int64 so a single plain sort
    (quicksort beats stable mergesort several-fold at kernel window
    sizes) replaces ``argsort(kind="stable")`` plus the gather, with the
    position low bits providing the stability tie-break.  Falls back to
    the stable argsort when the packed key could overflow.
    """
    n = len(keys)
    top = int(keys.max()) if n else 0
    if n and top < (1 << 62) // (n + 1):
        composite = keys * n + np.arange(n, dtype=np.int64)
        composite.sort()
        return composite % n, composite // n
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def _occurrence_numbers(keys: np.ndarray) -> np.ndarray:
    """1-based rank of every element among equal *keys*, in order.

    ``keys = [5, 3, 5, 5, 3]`` yields ``[1, 1, 2, 3, 2]``: with a
    counter snapshot taken before the run, the counter value after the
    k-th occurrence of an index is exactly ``base + k`` (saturation
    aside), which is what lets a whole segment be scored at once.
    """
    order, sorted_keys = _stable_sort(keys)
    positions = np.arange(len(keys), dtype=np.int64)
    starts = np.empty(len(keys), dtype=bool)
    starts[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    group_start = np.maximum.accumulate(np.where(starts, positions, 0))
    occurrence = positions - group_start + 1
    out = np.empty(len(keys), dtype=np.int64)
    out[order] = occurrence
    return out


def _bulk_increment(counters: np.ndarray, hash_indices: np.ndarray,
                    max_value: int) -> None:
    """Apply one saturating increment per element of *hash_indices*."""
    if not len(hash_indices):
        return
    unique_indices, bumps = np.unique(hash_indices, return_counts=True)
    merged = counters[unique_indices] + bumps
    np.minimum(merged, max_value, out=merged)
    counters[unique_indices] = merged


class _ChunkAccumulator:
    """Chunk-scoped vectorized view over one :class:`AccumulatorTable`.

    Tracks residency as a boolean flag per unique tuple of the chunk
    (rebuilt per chunk, so interleaved per-event :meth:`observe` calls
    stay safe) plus a running count of replaceable entries, which is
    what makes the saturated-accumulator short-cut an O(1) check.  All
    mutations go through this wrapper so flags, the replaceable count
    and :class:`ProfilerStats` stay consistent with the table.

    Hits are *deferred*: :meth:`bulk_hits` only accumulates per-tuple
    counts in an array, and :meth:`flush` folds them into the entry
    objects.  Deferral is exact because hit counts are additive and
    the only state hits can change -- the replaceable flag, which pins
    one way -- is read solely at flush points: every promotion
    boundary (victim selection) and the end of the chunk.  The
    :attr:`saturated` check may see pending hits un-applied, but that
    errs only toward *not* taking the shortcut, and the boundary it
    then runs starts with a flush.
    """

    __slots__ = ("table", "unique", "threshold", "stats", "resident",
                 "replaceable", "entry_refs", "pending", "_dirty")

    def __init__(self, table: AccumulatorTable, unique: np.ndarray,
                 threshold: int, stats,
                 resident: Optional[np.ndarray] = None,
                 entry_refs=None,
                 scan: bool = True) -> None:
        self.table = table
        self.unique = unique
        self.threshold = threshold
        self.stats = stats
        # The batched runner passes per-tenant *views* into one shared
        # residency array (and a matching object-dtype entry-ref array)
        # so a whole multi-session batch gathers residency and scatters
        # entry references in single indexing operations; mutations
        # through the views stay visible to the batch kernels.
        if resident is None:
            resident = np.zeros(len(unique), dtype=bool)
        self.resident = resident
        self.replaceable = 0
        if entry_refs is None:
            entry_refs = [None] * len(unique)
        self.entry_refs = entry_refs
        self.pending = np.zeros(len(unique), dtype=np.int64)
        self._dirty = False
        if not scan:
            # The batched runner locates every tenant's entries in one
            # group-wide pass and fills ``resident``/``entry_refs``/
            # ``replaceable`` itself (see ``_Batch.__init__``).
            return
        entries = table.raw_entries()
        if entries:
            entry_list = list(entries.values())
            key_fields = np.fromiter(entries.keys(),
                                     dtype=np.dtype((np.uint64, 2)),
                                     count=len(entries))
            keys = key_fields.reshape(-1).view(PAIR_DTYPE)
            for entry in entry_list:
                if entry.replaceable:
                    self.replaceable += 1
            locations = np.searchsorted(unique, keys)
            np.clip(locations, 0, len(unique) - 1, out=locations)
            matched = unique[locations] == keys
            self.resident[locations[matched]] = True
            refs = self.entry_refs
            hits = np.flatnonzero(matched)
            for position, location in zip(hits.tolist(),
                                          locations[hits].tolist()):
                refs[location] = entry_list[position]

    @property
    def saturated(self) -> bool:
        """Full of pinned entries: every further insert is rejected."""
        return (len(self.table) >= self.table.capacity
                and self.replaceable == 0)

    def locate(self, event: ProfileTuple) -> Optional[int]:
        """Unique-tuple id of *event* within this chunk, if present."""
        key = np.zeros((), dtype=PAIR_DTYPE)
        key["p"], key["v"] = event
        position = int(np.searchsorted(self.unique, key))
        if position < len(self.unique) and self.unique[position] == key:
            return position
        return None

    def hit_entry(self, entry: AccumulatorEntry) -> None:
        """One :meth:`AccumulatorTable.record_hit`, mirrored."""
        entry.count += 1
        if entry.replaceable and entry.count >= self.threshold:
            entry.replaceable = False
            self.replaceable -= 1
            self.table.replaceable_count -= 1
        self.stats.accumulator_hits += 1

    def bulk_hits(self, event_ids: np.ndarray) -> None:
        """Count a batch of resident-tuple occurrences, deferred.

        Equivalent to per-event :meth:`hit_entry` once flushed because
        counts are additive and the replaceable flag clears at the
        same final state no matter where inside the batch the
        threshold was crossed (no eviction can observe the difference
        mid-segment -- evictions always flush first).
        """
        if not len(event_ids):
            return
        self.pending += np.bincount(event_ids, minlength=len(self.pending))
        self._dirty = True
        self.stats.accumulator_hits += len(event_ids)

    def flush(self) -> None:
        """Fold the deferred hit counts into the entry objects."""
        if not self._dirty:
            return
        hit_ids = np.flatnonzero(self.pending)
        refs = self.entry_refs
        threshold = self.threshold
        table = self.table
        for event_id, count in zip(hit_ids.tolist(),
                                   self.pending[hit_ids].tolist()):
            entry = refs[event_id]
            entry.count += count
            if entry.replaceable and entry.count >= threshold:
                entry.replaceable = False
                self.replaceable -= 1
                table.replaceable_count -= 1
        self.pending[hit_ids] = 0
        self._dirty = False

    def insert(self, event: ProfileTuple, event_id: int,
               initial_count: int) -> bool:
        """Tracked :meth:`AccumulatorTable.insert`, keeping flags live."""
        inserted, evicted = self.table.insert_tracked(event, initial_count)
        if not inserted:
            return False
        if evicted is not None:
            # Victims are replaceable by definition; the evicted tuple
            # may lie outside this chunk's unique set.
            self.replaceable -= 1
            position = self.locate(evicted)
            if position is not None:
                self.resident[position] = False
                self.entry_refs[position] = None
        self.resident[event_id] = True
        self.entry_refs[event_id] = self.table.raw_entries()[event]
        return True


def _check_kernel_config(config: ProfilerConfig) -> None:
    if config.counter_bits > MAX_KERNEL_COUNTER_BITS:
        raise ValueError(
            f"vectorized kernels support counter_bits <= "
            f"{MAX_KERNEL_COUNTER_BITS}, got {config.counter_bits}; "
            f"use backend='scalar'")


class VectorizedSingleHashProfiler(SingleHashProfiler):
    """Segmented NumPy kernel for the single-hash profiler.

    Bit-identical to :class:`SingleHashProfiler` (candidates, counts
    and stats), verified by ``tests/test_kernel_parity.py``.
    """

    supports_array_chunks = True

    def __init__(self, config: ProfilerConfig,
                 hash_function: Optional[TupleHashFunction] = None) -> None:
        _check_kernel_config(config)
        super().__init__(config, hash_function)
        self.table = NumpyCounterTable(config.entries_per_table,
                                       config.counter_bits)

    def observe_chunk(self, events, index_lists=None):
        if not isinstance(events, (list, tuple)):
            events = list(events)
        if not events:
            return
        pairs = np.asarray(events, dtype=np.uint64)
        self.observe_array_chunk(pairs[:, 0], pairs[:, 1])

    def observe_array_chunk(self, pcs: np.ndarray,
                            values: np.ndarray) -> None:
        pcs = np.ascontiguousarray(pcs, dtype=np.uint64)
        values = np.ascontiguousarray(values, dtype=np.uint64)
        total = len(pcs)
        if not total:
            return
        unique, event_ids = _dedupe_pairs(pcs, values)
        indices = self.hash_function.index_array(pcs, values)
        accumulator = _ChunkAccumulator(self.accumulator, unique,
                                        self.interval.threshold_count,
                                        self.stats)
        for start in range(0, total, WINDOW_EVENTS):
            self._window(pcs, values, event_ids, indices, accumulator,
                         start, min(total, start + WINDOW_EVENTS))
        accumulator.flush()
        self.stats.events += total
        self._events_this_interval += total

    # -- windowed kernel ----------------------------------------------

    def _window(self, pcs, values, event_ids, indices, accumulator,
                start, stop):
        threshold = self.interval.threshold_count
        max_value = self.table.max_value
        counters = self.table.array
        shielding = self.config.shielding
        stats = self.stats
        boundaries = 0
        while start < stop:
            if boundaries >= MAX_WINDOW_BOUNDARIES:
                self._scalar_span(pcs, values, event_ids, indices,
                                  accumulator, start, stop)
                return
            ids = event_ids[start:stop]
            resident = accumulator.resident[ids]
            hashed = (np.flatnonzero(~resident) if shielding
                      else np.arange(stop - start))
            if not len(hashed):
                accumulator.bulk_hits(ids)
                return
            hash_indices = indices[start:stop][hashed]
            occurrence = _occurrence_numbers(hash_indices)
            counted = counters[hash_indices] + occurrence
            np.minimum(counted, max_value, out=counted)
            attempts = counted >= threshold
            if not shielding:
                attempts &= ~resident[hashed]
            attempt_positions = np.flatnonzero(attempts)
            if not len(attempt_positions) or accumulator.saturated:
                if len(attempt_positions):
                    stats.rejected_promotions += len(attempt_positions)
                    self.accumulator.rejected_inserts += \
                        len(attempt_positions)
                _bulk_increment(counters, hash_indices, max_value)
                stats.hash_updates += len(hash_indices)
                accumulator.bulk_hits(ids[resident])
                return
            cut = int(attempt_positions[0])
            boundary = int(hashed[cut])
            _bulk_increment(counters, hash_indices[:cut], max_value)
            stats.hash_updates += cut
            accumulator.bulk_hits(ids[:boundary][resident[:boundary]])
            self._scalar_span(pcs, values, event_ids, indices, accumulator,
                              start + boundary, start + boundary + 1)
            boundaries += 1
            start += boundary + 1

    def _scalar_span(self, pcs, values, event_ids, indices, accumulator,
                     start, stop):
        """Exact per-event reference over ``[start, stop)``.

        Mirrors the scalar ``observe_chunk`` loop verbatim (the parity
        harness pins both); handles promotion boundaries and the
        degenerate-window fallback.
        """
        accumulator.flush()
        threshold = self.interval.threshold_count
        max_value = self.table.max_value
        counters = self.table.array
        shielding = self.config.shielding
        resetting = self.config.resetting
        stats = self.stats
        entries = self.accumulator.raw_entries()
        for position in range(start, stop):
            event = (int(pcs[position]), int(values[position]))
            entry = entries.get(event)
            if shielding and entry is not None:
                accumulator.hit_entry(entry)
                continue
            index = int(indices[position])
            count = int(counters[index]) + 1
            if count > max_value:
                count = max_value
            counters[index] = count
            stats.hash_updates += 1
            if count >= threshold and entry is None:
                if accumulator.insert(event, int(event_ids[position]),
                                      count):
                    stats.promotions += 1
                    if resetting:
                        counters[index] = 0
                else:
                    stats.rejected_promotions += 1
            if not shielding and entry is not None:
                accumulator.hit_entry(entry)


class _ConservativeSpan:
    """Exact batch solver for one span of conservative-update events.

    Conservative update (``C1``) bumps only the minimum counter(s), so
    writing the bump as ``c_t <- max(c_t, min(m + 1, cap))`` -- a no-op
    on every non-minimum counter, which already holds at least
    ``m + 1`` -- turns each event into a pure *max* write of a single
    value ``D = min(M + 1, cap)`` into all of its counters, where
    ``M`` is the minimum the event observed.  That minimum satisfies

        M[e] = min over tables t of
               max(snapshot[t][e], max D[e'] over earlier events e'
                                   sharing e's counter in table t)

    a min-max recurrence whose dependency graph is acyclic (events read
    only strictly earlier events), hence with a **unique** fixpoint:
    the exact scalar execution.  The solver runs a Jacobi iteration on
    it.  One step evaluates the recurrence for every event at once:
    the (table, event) pairs are sorted by counter chain once at
    construction, and each step is a segmented exclusive prefix-max
    scan (segment ids are folded into the keys so a single
    ``np.maximum.accumulate`` covers all chains).

    Iterating downward from the traffic bound ``snapshot + rank``
    keeps every iterate above the fixpoint, and a *stable* iterate
    equals it: stability means ``x <= F(x)``, and induction over
    stream order on the acyclic system turns that into
    ``x <= fixpoint``.  Stability therefore certifies exactness -- the
    kernel never promotes off an approximate count.

    Convergence needs as many passes as the longest dependency chain,
    which interleaved tuples on shared counters can make deep.  After
    :data:`MAX_SOLVER_PASSES` the solver brackets instead: a few
    passes upward from the snapshot minima give a lower iterate,
    events where the brackets meet are certified exact, and the
    remaining stragglers are resolved by a sequential walk seeded with
    the certified events' contributions from one masked scan.
    """

    __slots__ = ("cap", "num_tables", "length", "counter_arrays",
                 "table_size", "chains", "order", "event_sorted",
                 "starts", "sorted_chains", "seg_base", "rank", "init",
                 "init_sorted", "minima", "overflow")

    def __init__(self, rows: List[np.ndarray],
                 counter_arrays: List[np.ndarray], cap: int) -> None:
        self.cap = cap
        self.counter_arrays = counter_arrays
        self.num_tables = num_tables = len(rows)
        self.length = length = len(rows[0])
        self.table_size = table_size = len(counter_arrays[0])
        total = num_tables * length
        chains = np.empty(total, dtype=np.int64)
        init = np.empty((num_tables, length), dtype=np.int64)
        for t, row in enumerate(rows):
            chains[t * length:(t + 1) * length] = row + t * table_size
            init[t] = counter_arrays[t][row]
        self.chains = chains.reshape(num_tables, length)
        # Counter values stay below both the cap and snapshot + span
        # length, so this stride packs (segment, value) into one int64
        # sort key; the guard catches configs where it cannot.
        stride = min(int(init.max()) + length, cap) + 2
        self.overflow = stride > (1 << 62) // (total + 1)
        if self.overflow:
            return
        order, sorted_chains = _stable_sort(chains)
        self.order = order
        self.event_sorted = order % length
        self.sorted_chains = sorted_chains
        starts = np.empty(total, dtype=bool)
        starts[0] = True
        np.not_equal(sorted_chains[1:], sorted_chains[:-1], out=starts[1:])
        self.starts = starts
        positions = np.arange(total, dtype=np.int64)
        rank_sorted = positions - np.maximum.accumulate(
            np.where(starts, positions, 0))
        rank = np.empty(total, dtype=np.int64)
        rank[order] = rank_sorted
        self.rank = rank.reshape(num_tables, length)
        self.init = init
        self.init_sorted = init.reshape(-1)[order]
        self.seg_base = (np.cumsum(starts) - 1) * stride
        self.minima = None

    def _step(self, minima: np.ndarray) -> np.ndarray:
        """One Jacobi evaluation of the recurrence, all events at once."""
        deltas = np.minimum(minima + 1, self.cap)
        key = self.seg_base + deltas[self.event_sorted]
        np.maximum.accumulate(key, out=key)
        exclusive = np.empty_like(key)
        exclusive[1:] = key[:-1]
        exclusive[0] = 0
        exclusive -= self.seg_base
        exclusive[self.starts] = 0
        np.maximum(exclusive, self.init_sorted, out=exclusive)
        per_table = np.empty(len(key), dtype=np.int64)
        per_table[self.order] = exclusive
        return per_table.reshape(self.num_tables, self.length).min(axis=0)

    def solve(self) -> np.ndarray:
        """Exact per-event observed minima for the whole span."""
        minima = np.minimum((self.init + self.rank).min(axis=0), self.cap)
        for _ in range(MAX_SOLVER_PASSES):
            refined = np.minimum(self._step(minima), minima)
            if np.array_equal(refined, minima):
                self.minima = minima
                return minima
            minima = refined
        lower = self.init.min(axis=0)
        for _ in range(CERTIFY_PASSES):
            refined = np.maximum(self._step(lower), lower)
            if np.array_equal(refined, lower):
                # Stable from below is the fixpoint outright.
                self.minima = refined
                return refined
            lower = refined
        if not np.array_equal(lower, minima):
            self._walk_stragglers(minima, lower)
        self.minima = minima
        return minima

    def _walk_stragglers(self, minima: np.ndarray,
                         lower: np.ndarray) -> None:
        """Resolve the events the pass budget left unbracketed.

        ``lower <= exact <= minima`` throughout, so events where the
        brackets meet are already exact.  Their writes fold into
        per-(table, event) bases via one masked scan; the stragglers
        are then walked sequentially in stream order against those
        bases plus a running per-chain maximum of straggler writes.
        Updates *minima* in place to the exact fixpoint.
        """
        frozen = lower == minima
        deltas = np.where(frozen, np.minimum(minima + 1, self.cap), 0)
        key = self.seg_base + deltas[self.event_sorted]
        np.maximum.accumulate(key, out=key)
        exclusive = np.empty_like(key)
        exclusive[1:] = key[:-1]
        exclusive[0] = 0
        exclusive -= self.seg_base
        exclusive[self.starts] = 0
        np.maximum(exclusive, self.init_sorted, out=exclusive)
        bases = np.empty(len(key), dtype=np.int64)
        bases[self.order] = exclusive
        bases = bases.reshape(self.num_tables, self.length)
        stragglers = np.flatnonzero(~frozen)
        chain_columns = [self.chains[t, stragglers].tolist()
                         for t in range(self.num_tables)]
        base_columns = [bases[t, stragglers].tolist()
                        for t in range(self.num_tables)]
        running: dict = {}
        resolved = [0] * len(stragglers)
        cap = self.cap
        tables = range(self.num_tables)
        for i in range(len(stragglers)):
            minimum = None
            for t in tables:
                value = base_columns[t][i]
                top = running.get(chain_columns[t][i])
                if top is not None and top > value:
                    value = top
                if minimum is None or value < minimum:
                    minimum = value
            resolved[i] = minimum
            delta = minimum + 1
            if delta > cap:
                delta = cap
            for t in tables:
                chain = chain_columns[t][i]
                top = running.get(chain)
                if top is None or top < delta:
                    running[chain] = delta
        minima[stragglers] = resolved

    def apply(self, cut: int) -> int:
        """Write the first *cut* events' counter updates back.

        Returns the scalar-equivalent hash-update count (one per table
        holding the event's minimum, saturated ties included).  Exact
        for any prefix: an event's minimum depends only on earlier
        events, so truncating the span truncates the writes.
        """
        minima = self.minima
        deltas = np.minimum(minima + 1, self.cap)
        if cut < self.length:
            deltas = deltas.copy()
            deltas[cut:] = 0
        key = self.seg_base + deltas[self.event_sorted]
        np.maximum.accumulate(key, out=key)
        last = np.empty(len(key), dtype=bool)
        last[:-1] = self.starts[1:]
        last[-1] = True
        finals = key[last] - self.seg_base[last]
        exclusive = np.empty_like(key)
        exclusive[1:] = key[:-1]
        exclusive[0] = 0
        exclusive -= self.seg_base
        exclusive[self.starts] = 0
        np.maximum(exclusive, self.init_sorted, out=exclusive)
        before = np.empty(len(key), dtype=np.int64)
        before[self.order] = exclusive
        before = before.reshape(self.num_tables, self.length)
        updates = int(np.count_nonzero(
            before[:, :cut] == minima[np.newaxis, :cut]))
        np.maximum(finals, self.init_sorted[last], out=finals)
        touched = self.sorted_chains[last]
        edges = np.searchsorted(
            touched, np.arange(self.num_tables + 1) * self.table_size)
        for t in range(self.num_tables):
            low, high = int(edges[t]), int(edges[t + 1])
            self.counter_arrays[t][touched[low:high]
                                   - t * self.table_size] = finals[low:high]
        return updates

    def apply_masked(self, mask: np.ndarray) -> np.ndarray:
        """:meth:`apply` for any per-event subset, not just a prefix.

        The batched multi-session kernel truncates each tenant at its
        own promotion boundary, so the events to commit form a
        *per-chain* prefix (chains never span tenants) rather than a
        prefix of the packed span -- which is all exactness needs: an
        event's minimum depends only on earlier events of its own
        chains, and every earlier chain-mate of a committed event is
        committed too.

        Returns the per-event scalar-equivalent hash-update counts
        (zero outside *mask*) so the caller can scatter
        ``stats.hash_updates`` back to each tenant.
        """
        minima = self.minima
        deltas = np.where(mask, np.minimum(minima + 1, self.cap), 0)
        key = self.seg_base + deltas[self.event_sorted]
        np.maximum.accumulate(key, out=key)
        last = np.empty(len(key), dtype=bool)
        last[:-1] = self.starts[1:]
        last[-1] = True
        finals = key[last] - self.seg_base[last]
        exclusive = np.empty_like(key)
        exclusive[1:] = key[:-1]
        exclusive[0] = 0
        exclusive -= self.seg_base
        exclusive[self.starts] = 0
        np.maximum(exclusive, self.init_sorted, out=exclusive)
        before = np.empty(len(key), dtype=np.int64)
        before[self.order] = exclusive
        before = before.reshape(self.num_tables, self.length)
        per_event = ((before == minima[np.newaxis, :])
                     & mask[np.newaxis, :]).sum(axis=0, dtype=np.int64)
        np.maximum(finals, self.init_sorted[last], out=finals)
        touched = self.sorted_chains[last]
        edges = np.searchsorted(
            touched, np.arange(self.num_tables + 1) * self.table_size)
        for t in range(self.num_tables):
            low, high = int(edges[t]), int(edges[t + 1])
            self.counter_arrays[t][touched[low:high]
                                   - t * self.table_size] = finals[low:high]
        return per_event


class VectorizedMultiHashProfiler(MultiHashProfiler):
    """Segmented NumPy kernel for the multi-hash profiler.

    Bit-identical to :class:`MultiHashProfiler` for both the plain
    (``C0``) and conservative-update (``C1``) increment policies,
    verified by ``tests/test_kernel_parity.py``.
    """

    supports_array_chunks = True

    def __init__(self, config: ProfilerConfig,
                 hash_functions: Optional[Sequence[TupleHashFunction]] = None
                 ) -> None:
        _check_kernel_config(config)
        super().__init__(config, hash_functions)
        self.tables = [
            NumpyCounterTable(config.entries_per_table, config.counter_bits)
            for _ in range(config.num_tables)
        ]

    def observe_chunk(self, events, index_lists=None):
        if not isinstance(events, (list, tuple)):
            events = list(events)
        if not events:
            return
        pairs = np.asarray(events, dtype=np.uint64)
        self.observe_array_chunk(pairs[:, 0], pairs[:, 1])

    def observe_array_chunk(self, pcs: np.ndarray,
                            values: np.ndarray) -> None:
        pcs = np.ascontiguousarray(pcs, dtype=np.uint64)
        values = np.ascontiguousarray(values, dtype=np.uint64)
        total = len(pcs)
        if not total:
            return
        unique, event_ids = _dedupe_pairs(pcs, values)
        index_columns = [function.index_array(pcs, values)
                         for function in self.hash_functions]
        accumulator = _ChunkAccumulator(self.accumulator, unique,
                                        self.interval.threshold_count,
                                        self.stats)
        if self.config.conservative_update:
            window, window_events = (self._window_conservative,
                                     C1_WINDOW_EVENTS)
        else:
            window, window_events = self._window_plain, WINDOW_EVENTS
        for start in range(0, total, window_events):
            window(pcs, values, event_ids, index_columns, accumulator,
                   start, min(total, start + window_events))
        accumulator.flush()
        self.stats.events += total
        self._events_this_interval += total

    # -- plain increment (C0) -----------------------------------------

    def _window_plain(self, pcs, values, event_ids, index_columns,
                      accumulator, start, stop):
        threshold = self.interval.threshold_count
        max_value = self.tables[0].max_value
        counter_arrays = [table.array for table in self.tables]
        num_tables = len(counter_arrays)
        shielding = self.config.shielding
        stats = self.stats
        boundaries = 0
        while start < stop:
            if boundaries >= MAX_WINDOW_BOUNDARIES:
                self._scalar_span(pcs, values, event_ids, index_columns,
                                  accumulator, start, stop)
                return
            ids = event_ids[start:stop]
            resident = accumulator.resident[ids]
            hashed = (np.flatnonzero(~resident) if shielding
                      else np.arange(stop - start))
            if not len(hashed):
                accumulator.bulk_hits(ids)
                return
            # Every table is incremented on every hash event, so the
            # counter a given event sees is snapshot + per-index rank,
            # aliasing included -- exact with no per-tuple analysis.
            minimum = None
            estimate = None
            hash_index_rows = []
            for table, column in zip(counter_arrays, index_columns):
                row = column[start:stop][hashed]
                hash_index_rows.append(row)
                occurrence = _occurrence_numbers(row)
                base = table[row]
                before = np.minimum(base + occurrence - 1, max_value)
                after = np.minimum(base + occurrence, max_value)
                if minimum is None:
                    minimum, estimate = before, after
                else:
                    np.minimum(minimum, before, out=minimum)
                    np.minimum(estimate, after, out=estimate)
            attempts = (minimum < threshold) & (estimate >= threshold)
            if not shielding:
                attempts &= ~resident[hashed]
            attempt_positions = np.flatnonzero(attempts)
            if not len(attempt_positions) or accumulator.saturated:
                if len(attempt_positions):
                    stats.rejected_promotions += len(attempt_positions)
                    self.accumulator.rejected_inserts += \
                        len(attempt_positions)
                for table, row in zip(counter_arrays, hash_index_rows):
                    _bulk_increment(table, row, max_value)
                stats.hash_updates += num_tables * len(hashed)
                accumulator.bulk_hits(ids[resident])
                return
            cut = int(attempt_positions[0])
            boundary = int(hashed[cut])
            for table, row in zip(counter_arrays, hash_index_rows):
                _bulk_increment(table, row[:cut], max_value)
            stats.hash_updates += num_tables * cut
            accumulator.bulk_hits(ids[:boundary][resident[:boundary]])
            self._scalar_span(pcs, values, event_ids, index_columns,
                              accumulator, start + boundary,
                              start + boundary + 1)
            boundaries += 1
            start += boundary + 1

    # -- conservative update (C1) -------------------------------------

    def _window_conservative(self, pcs, values, event_ids, index_columns,
                             accumulator, start, stop):
        threshold = self.interval.threshold_count
        max_value = self.tables[0].max_value
        counter_arrays = [table.array for table in self.tables]
        shielding = self.config.shielding
        stats = self.stats
        boundaries = 0
        while start < stop:
            if boundaries >= MAX_WINDOW_BOUNDARIES:
                self._scalar_span(pcs, values, event_ids, index_columns,
                                  accumulator, start, stop)
                return
            ids = event_ids[start:stop]
            resident = accumulator.resident[ids]
            hashed = (np.flatnonzero(~resident) if shielding
                      else np.arange(stop - start))
            if not len(hashed):
                accumulator.bulk_hits(ids)
                return
            if len(hashed) < MIN_SOLVER_SPAN:
                self._scalar_span(pcs, values, event_ids, index_columns,
                                  accumulator, start, stop)
                return
            span = _ConservativeSpan(
                [column[start:stop][hashed] for column in index_columns],
                counter_arrays, max_value)
            if span.overflow:
                self._scalar_span(pcs, values, event_ids, index_columns,
                                  accumulator, start, stop)
                return
            minima = span.solve()
            # A crossing is minimum < threshold <= min(minimum + 1, cap),
            # which collapses to minimum == threshold - 1 and cannot
            # happen at all once the threshold exceeds the counter cap.
            if threshold <= max_value:
                attempts = minima == threshold - 1
                if not shielding:
                    attempts &= ~resident[hashed]
                attempt_positions = np.flatnonzero(attempts)
            else:
                attempt_positions = np.empty(0, dtype=np.int64)
            if not len(attempt_positions) or accumulator.saturated:
                if len(attempt_positions):
                    stats.rejected_promotions += len(attempt_positions)
                    self.accumulator.rejected_inserts += \
                        len(attempt_positions)
                stats.hash_updates += span.apply(len(hashed))
                accumulator.bulk_hits(ids[resident])
                return
            cut = int(attempt_positions[0])
            boundary = int(hashed[cut])
            stats.hash_updates += span.apply(cut)
            accumulator.bulk_hits(ids[:boundary][resident[:boundary]])
            self._scalar_span(pcs, values, event_ids, index_columns,
                              accumulator, start + boundary,
                              start + boundary + 1)
            boundaries += 1
            start += boundary + 1

    def _scalar_span(self, pcs, values, event_ids, index_columns,
                     accumulator, start, stop):
        """Exact per-event reference over ``[start, stop)``."""
        accumulator.flush()
        threshold = self.interval.threshold_count
        max_value = self.tables[0].max_value
        counter_arrays = [table.array for table in self.tables]
        num_tables = len(counter_arrays)
        shielding = self.config.shielding
        resetting = self.config.resetting
        conservative = self.config.conservative_update
        stats = self.stats
        entries = self.accumulator.raw_entries()
        for position in range(start, stop):
            event = (int(pcs[position]), int(values[position]))
            entry = entries.get(event)
            if shielding and entry is not None:
                accumulator.hit_entry(entry)
                continue
            row = [int(column[position]) for column in index_columns]
            if conservative:
                current = [int(counter_arrays[t][row[t]])
                           for t in range(num_tables)]
                minimum = min(current)
                estimate = minimum + 1
                if estimate > max_value:
                    estimate = max_value
                for t in range(num_tables):
                    if current[t] == minimum:
                        bumped = current[t] + 1
                        if bumped > max_value:
                            bumped = max_value
                        counter_arrays[t][row[t]] = bumped
                        stats.hash_updates += 1
            else:
                minimum = max_value
                estimate = max_value
                for t in range(num_tables):
                    before = int(counter_arrays[t][row[t]])
                    bumped = before + 1
                    if bumped > max_value:
                        bumped = max_value
                    counter_arrays[t][row[t]] = bumped
                    stats.hash_updates += 1
                    if before < minimum:
                        minimum = before
                    if bumped < estimate:
                        estimate = bumped
            if minimum < threshold <= estimate and entry is None:
                if accumulator.insert(event, int(event_ids[position]),
                                      estimate):
                    stats.promotions += 1
                    if resetting:
                        for t in range(num_tables):
                            counter_arrays[t][row[t]] = 0
                else:
                    stats.rejected_promotions += 1
            if not shielding and entry is not None:
                accumulator.hit_entry(entry)
