"""Batched multi-session kernels: one NumPy dispatch per tick.

The vectorized kernels (:mod:`repro.core.kernels`) already consume
whole event arrays, but every profiler instance still dispatches its
own call chain per chunk.  A multi-tenant driver -- the profile
service's shard worker, or a session feeding many same-shape
configurations -- therefore pays the full Python/NumPy dispatch
overhead once per tenant per tick, which dominates once chunks are
small (the paper's hardware handles every in-flight stream in one pass
per cycle; this module is the software analogue).

:class:`BatchedKernelRunner` removes that factor.  Per tick it:

1. **groups** the pending ``(profiler, pcs, values)`` requests by
   kernel-compatibility key (architecture, table shape, counter width,
   hash seed, threshold -- per-tenant flags like shielding/resetting
   may differ within a group);
2. **packs** each group's chunks into ragged ``(events, segment_id)``
   arrays: tenant-major concatenation, a segment id per event, one
   segment-aware dedupe giving per-tenant sorted unique tuples, hash
   indices computed once over the packed arrays (the group shares its
   hash functions by construction) and offset by ``segment *
   table_size`` into per-table concatenations of the tenants' counter
   arrays;
3. **runs** the single-hash / multi-hash window kernels segment-aware
   over the packed arrays -- occurrence numbering, bulk increment and
   the conservative-update span solver all operate on the offset
   indices, so per-tenant independence is free: offset index spaces
   never collide, and the existing kernels' correctness arguments
   apply per segment unchanged;
4. **scatters** results back: final counters into each tenant's
   :class:`~repro.core.kernels.NumpyCounterTable`, deferred
   accumulator hits into each tenant's entries, and per-tenant stat
   deltas (``bincount`` over segment ids) into each
   :class:`~repro.core.base.ProfilerStats`.

Promotion boundaries are handled **per tenant, in parallel**: a
promotion only invalidates the *promoting tenant's* later events, so
one round commits every tenant's exact prefix (up to its own first
blocking attempt), scalar-steps each blocked tenant's boundary event,
and re-scores only the shrunken frontier.  The number of rounds is
bounded by the *maximum* boundaries of any single tenant, not the sum
-- the same bound the per-session kernels enjoy.

Results are bit-identical to the scalar reference (and hence to the
per-session vectorized kernels) -- same candidates, counts, stats and
residual accumulator state -- verified by
``tests/test_batched_parity.py`` over ragged multi-session batches.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .base import HardwareProfiler
from .kernels import (C1_WINDOW_EVENTS, MAX_WINDOW_BOUNDARIES,
                      MIN_SOLVER_SPAN, PAIR_DTYPE, WINDOW_EVENTS,
                      VectorizedMultiHashProfiler,
                      VectorizedSingleHashProfiler, _bulk_increment,
                      _ChunkAccumulator, _ConservativeSpan, _dedupe_pairs,
                      _occurrence_numbers)

#: One batched request: a profiler plus its pending chunk.
BatchRequest = Tuple[HardwareProfiler, np.ndarray, np.ndarray]

#: Upper bound on the packed window, whatever the tenant count.  The
#: per-session window size scales with the number of tenants (each
#: tenant still sees roughly ``WINDOW_EVENTS`` of it) but is capped so
#: a boundary's frontier re-score stays affordable.
BATCH_WINDOW_CAP = 1 << 16

#: Packed-window cap for the conservative-update (``C1``) path.
#: Counter chains only form *within* a tenant, so the solver's chain
#: depth scales with the per-tenant share of the window, not its total
#: size -- but the cap still bounds a single solver pass.
BATCH_C1_WINDOW_CAP = 1 << 15


def _group_key(profiler: HardwareProfiler):
    """Kernel-compatibility key, or ``None`` if not batchable.

    Tenants in one group must agree on everything the packed kernels
    hoist out of the per-tenant state: architecture, table shape,
    counter width (saturation cap), hash functions (derived from the
    config seed -- profilers with explicitly supplied functions are
    never folded) and promotion threshold.  Shielding, resetting,
    retaining and accumulator capacity stay per-tenant.

    The key is immutable for a profiler's lifetime, so it is cached on
    the instance (dispatch re-derives it every tick otherwise).
    """
    try:
        return profiler._batch_group_key
    except AttributeError:
        pass
    key = _derive_group_key(profiler)
    profiler._batch_group_key = key
    return key


def _derive_group_key(profiler: HardwareProfiler):
    if isinstance(profiler, VectorizedSingleHashProfiler):
        if profiler.custom_hash:
            return None
        config = profiler.config
        return ("single", config.entries_per_table, config.counter_bits,
                config.hash_seed, profiler.interval.threshold_count)
    if isinstance(profiler, VectorizedMultiHashProfiler):
        if profiler.custom_hash:
            return None
        config = profiler.config
        return ("multi", config.num_tables, config.entries_per_table,
                config.counter_bits, config.hash_seed,
                bool(config.conservative_update),
                profiler.interval.threshold_count)
    return None


def _dedupe_segmented(
        seg: np.ndarray, pcs: np.ndarray, values: np.ndarray,
        num_segments: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Segment-aware :func:`~repro.core.kernels._dedupe_pairs`.

    Two stages: a segment-blind pair dedupe maps every event to a
    compact global tuple id, then one plain int64 sort over the packed
    ``segment * G + gid`` keys splits those ids per tenant -- the full
    128-bit pair fields are sorted exactly once, however many tenants
    share the batch.

    Returns ``(unique, event_ids, u_starts, global_pairs, row_keys)``:
    *unique* holds the distinct ``(segment, pc, value)`` triples as a
    tenant-major concatenation of per-tenant sorted ``PAIR_DTYPE``
    blocks (block ``t`` is ``unique[u_starts[t]:u_starts[t + 1]]``),
    *event_ids* maps every packed event to its row in *unique*,
    *global_pairs* is the segment-blind sorted unique-pair array, and
    *row_keys* is the strictly ascending ``segment * G + gid`` key of
    every *unique* row (``G == len(global_pairs)``) -- the handle the
    batch uses to locate accumulator entries group-wide.
    """
    global_pairs, gids = _dedupe_pairs(pcs, values)
    G = len(global_pairs)
    packed = seg * G + gids
    order = np.argsort(packed)
    sorted_keys = packed[order]
    starts = np.empty(len(order), dtype=bool)
    starts[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    group = np.cumsum(starts) - 1
    event_ids = np.empty(len(order), dtype=np.int64)
    event_ids[order] = group
    row_keys = sorted_keys[starts]
    unique = global_pairs[row_keys % G]
    unique_seg = row_keys // G
    u_starts = np.searchsorted(unique_seg,
                               np.arange(num_segments + 1)).astype(np.int64)
    return unique, event_ids, u_starts, global_pairs, row_keys


class _Batch:
    """One packed kernel dispatch over a compatibility group.

    Holds the packed arrays plus per-tenant wrappers for the lifetime
    of one :meth:`run`; tenants' counter tables are snapshotted into
    per-table concatenations up front and scattered back at the end.
    """

    def __init__(self, profilers: List[HardwareProfiler],
                 chunks: List[Tuple[np.ndarray, np.ndarray]],
                 scan_cache: Optional[dict] = None) -> None:
        self._scan_cache = scan_cache
        first = profilers[0]
        self.profilers = profilers
        self.single = isinstance(first, VectorizedSingleHashProfiler)
        self.T = T = len(profilers)
        config = first.config
        self.table_size = config.entries_per_table
        self.num_tables = 1 if self.single else config.num_tables
        self.conservative = (False if self.single
                             else config.conservative_update)
        self.threshold = first.interval.threshold_count
        self.max_value = (first.table.max_value if self.single
                          else first.tables[0].max_value)
        self.shield = np.array([p.config.shielding for p in profilers],
                               dtype=bool)
        self.reset = [p.config.resetting for p in profilers]
        self.lengths = [len(pcs) for pcs, _ in chunks]
        self.total = sum(self.lengths)
        self.seg = np.repeat(np.arange(T, dtype=np.int64), self.lengths)
        functions = ([first.hash_function] if self.single
                     else first.hash_functions)

        first_pcs, first_values = chunks[0]
        shared = T > 1 and all(pcs is first_pcs and values is first_values
                               for pcs, values in chunks)
        if shared:
            # Same-shape sweep cells feed every tenant the same chunk
            # object; dedupe and hash once, then tile with offsets.
            self.pcs_all = np.tile(first_pcs, T)
            self.values_all = np.tile(first_values, T)
            unique0, ids0 = _dedupe_pairs(first_pcs, first_values)
            block = len(unique0)
            unique = np.tile(unique0, T)
            event_ids = (np.tile(ids0, T)
                         + np.repeat(np.arange(T, dtype=np.int64) * block,
                                     len(first_pcs)))
            u_starts = np.arange(T + 1, dtype=np.int64) * block
            local_rows = [np.tile(f.index_array(first_pcs, first_values), T)
                          for f in functions]
            # Every tenant's unique block IS the global pair array, so
            # row ``t * block + i`` packs to exactly that value.
            global_pairs = unique0
            row_keys = np.arange(T * block, dtype=np.int64)
        else:
            self.pcs_all = np.concatenate([pcs for pcs, _ in chunks])
            self.values_all = np.concatenate(
                [values for _, values in chunks])
            unique, event_ids, u_starts, global_pairs, row_keys = \
                _dedupe_segmented(self.seg, self.pcs_all, self.values_all,
                                  T)
            local_rows = [f.index_array(self.pcs_all, self.values_all)
                          for f in functions]
        self.event_ids = event_ids
        self.u_starts = u_starts
        offsets = self.seg * self.table_size
        self.rows = [local + offsets for local in local_rows]
        if self.single:
            self.bigs = [np.concatenate([p.table.array for p in profilers])]
        else:
            self.bigs = [
                np.concatenate([p.tables[j].array for p in profilers])
                for j in range(self.num_tables)]

        self.U = len(unique)
        self.resident_all = np.zeros(self.U, dtype=bool)
        self.refs_all = np.empty(self.U, dtype=object)
        self.accs: List[_ChunkAccumulator] = []
        for t, profiler in enumerate(profilers):
            low, high = int(u_starts[t]), int(u_starts[t + 1])
            self.accs.append(_ChunkAccumulator(
                profiler.accumulator, unique[low:high], self.threshold,
                profiler.stats, resident=self.resident_all[low:high],
                entry_refs=self.refs_all[low:high],
                scan=False))
        self._scan_entries(global_pairs, row_keys)
        self.pending_all = np.zeros(self.U, dtype=np.int64)
        self.tenant_dirty = np.zeros(T, dtype=bool)
        self.hash_updates_acc = np.zeros(T, dtype=np.int64)
        self.rejected_acc = np.zeros(T, dtype=np.int64)
        self.acc_hits_acc = np.zeros(T, dtype=np.int64)

    def _scan_entries(self, global_pairs: np.ndarray,
                      row_keys: np.ndarray) -> None:
        """Locate every tenant's accumulator entries in one pass.

        Fills the ``resident``/``entry_refs``/``replaceable`` state the
        per-tenant ``_ChunkAccumulator`` scan would have built
        (``scan=False`` skipped it): all tenants' entry tuples are
        looked up in the segment-blind *global_pairs* array, packed
        with their tenant id, and matched against *row_keys* with a
        single int64 searchsorted instead of one structured-dtype scan
        per tenant.

        Each table's packed key array is cached on the table keyed by
        its structural version, so steady-state ticks (hits only, no
        promotions or interval turns) concatenate cached arrays instead
        of re-materializing every key; the ``replaceable`` seed comes
        from the table's live counter rather than a flag scan.
        """
        tables = [profiler.accumulator for profiler in self.profilers]
        for table, acc in zip(tables, self.accs):
            acc.replaceable = table.replaceable_count
        versions = tuple(table.version for table in tables)
        group = self._scan_cache
        stored = None
        if group is not None:
            stored = group.get(id(self.profilers[0]))
            if stored is not None and (stored[0] != versions
                                       or stored[1] != tables):
                stored = None
        if stored is None:
            key_blocks = []
            entry_blocks = []
            counts = []
            for table in tables:
                cached = table.keys_cache
                if cached is None or cached[0] != table.version:
                    entries = table.raw_entries()
                    n = len(entries)
                    if n:
                        fields = np.fromiter(entries.keys(),
                                             dtype=np.dtype((np.uint64, 2)),
                                             count=n)
                        keys = fields.reshape(-1).view(PAIR_DTYPE)
                    else:
                        keys = np.empty(0, dtype=PAIR_DTYPE)
                    refs = np.empty(n, dtype=object)
                    refs[:] = list(entries.values())
                    cached = (table.version, keys, refs)
                    table.keys_cache = cached
                counts.append(len(cached[1]))
                key_blocks.append(cached[1])
                entry_blocks.append(cached[2])
            if self.T == 1:
                keys = key_blocks[0]
                entries_all = entry_blocks[0]
            else:
                keys = np.concatenate(key_blocks)
                entries_all = np.concatenate(entry_blocks)
            key_seg = np.repeat(np.arange(self.T, dtype=np.int64), counts)
            # Keyed by the leading profiler's id; identity of every
            # table is re-verified on lookup (the cache holds strong
            # references, so a hit can never alias a recycled id).
            if group is not None:
                if len(group) > 32:
                    group.clear()
                group[id(self.profilers[0])] = (versions, tables, keys,
                                                entries_all, key_seg)
        else:
            _, _, keys, entries_all, key_seg = stored
        total = len(keys)
        if not total:
            return
        G = len(global_pairs)
        gids = np.searchsorted(global_pairs, keys)
        np.clip(gids, 0, G - 1, out=gids)
        present = global_pairs[gids] == keys
        packed = key_seg * G + gids
        locations = np.searchsorted(row_keys, packed)
        np.clip(locations, 0, self.U - 1, out=locations)
        matched = (row_keys[locations] == packed) & present
        hit_locations = locations[matched]
        self.resident_all[hit_locations] = True
        self.refs_all[hit_locations] = entries_all[matched]

    # -- driving -------------------------------------------------------

    def run(self) -> None:
        per_tenant = C1_WINDOW_EVENTS if self.conservative else WINDOW_EVENTS
        cap = (BATCH_C1_WINDOW_CAP if self.conservative
               else BATCH_WINDOW_CAP)
        window = min(cap, per_tenant * self.T)
        for start in range(0, self.total, window):
            self._window(np.arange(start, min(self.total, start + window),
                                   dtype=np.int64))
        self._finish()

    def _finish(self) -> None:
        self._flush_all()
        hash_updates = self.hash_updates_acc.tolist()
        acc_hits = self.acc_hits_acc.tolist()
        rejected_all = self.rejected_acc.tolist()
        for t, profiler in enumerate(self.profilers):
            stats = profiler.stats
            stats.hash_updates += hash_updates[t]
            stats.accumulator_hits += acc_hits[t]
            rejected = rejected_all[t]
            if rejected:
                stats.rejected_promotions += rejected
                profiler.accumulator.rejected_inserts += rejected
            stats.events += self.lengths[t]
            profiler._events_this_interval += self.lengths[t]
            low = t * self.table_size
            high = low + self.table_size
            if self.single:
                profiler.table.array[:] = self.bigs[0][low:high]
            else:
                for table, big in zip(profiler.tables, self.bigs):
                    table.array[:] = big[low:high]

    # -- the segment-aware window --------------------------------------

    def _window(self, active: np.ndarray) -> None:
        """Process packed positions *active* (ascending, tenant-major).

        Each round scores the whole frontier from a state snapshot,
        commits every tenant's exact prefix (everything before its
        first non-saturated promotion attempt), scalar-steps the
        blocked tenants' boundary events, and keeps only the events
        after their own tenant's boundary for the next round.
        """
        T = self.T
        threshold = self.threshold
        max_value = self.max_value
        boundaries = 0
        while len(active):
            if boundaries >= MAX_WINDOW_BOUNDARIES:
                self._scalar_span(active)
                return
            seg_a = self.seg[active]
            gids = self.event_ids[active]
            res = self.resident_all[gids]
            # A resident tuple skips hashing only in shielded tenants;
            # elsewhere it hashes *and* counts in the accumulator.
            hashed = np.flatnonzero(~(res & self.shield[seg_a]))
            if not len(hashed):
                self._hits(gids, seg_a)
                return
            if (self.conservative
                    and len(hashed) < MIN_SOLVER_SPAN):
                self._scalar_span(active)
                return
            act_h = active[hashed]
            seg_h = seg_a[hashed]
            res_h = res[hashed]
            span = None
            if self.single:
                row_h = [self.rows[0][act_h]]
                occurrence = _occurrence_numbers(row_h[0])
                counted = self.bigs[0][row_h[0]] + occurrence
                np.minimum(counted, max_value, out=counted)
                attempts = counted >= threshold
                attempts &= ~res_h
            elif not self.conservative:
                row_h = [row[act_h] for row in self.rows]
                minimum = None
                estimate = None
                for big, row in zip(self.bigs, row_h):
                    occurrence = _occurrence_numbers(row)
                    base = big[row]
                    before = np.minimum(base + occurrence - 1, max_value)
                    after = np.minimum(base + occurrence, max_value)
                    if minimum is None:
                        minimum, estimate = before, after
                    else:
                        np.minimum(minimum, before, out=minimum)
                        np.minimum(estimate, after, out=estimate)
                attempts = (minimum < threshold) & (estimate >= threshold)
                attempts &= ~res_h
            else:
                row_h = [row[act_h] for row in self.rows]
                span = _ConservativeSpan(row_h, self.bigs, max_value)
                if span.overflow:
                    self._scalar_span(active)
                    return
                minima = span.solve()
                if threshold <= max_value:
                    attempts = minima == threshold - 1
                    attempts &= ~res_h
                else:
                    attempts = np.zeros(len(hashed), dtype=bool)

            # First *blocking* attempt per tenant; attempts in
            # saturated tenants are bulk rejections (saturation is
            # absorbing for the rest of the interval).
            saturated = np.fromiter((acc.saturated for acc in self.accs),
                                    dtype=bool, count=T)
            blocking = attempts & ~saturated[seg_h]
            n = len(active)
            cut_by_seg = np.full(T, n, dtype=np.int64)
            blocking_positions = np.flatnonzero(blocking)
            if len(blocking_positions):
                tenants, firsts = np.unique(seg_h[blocking_positions],
                                            return_index=True)
                bound_pos = hashed[blocking_positions[firsts]]
                cut_by_seg[tenants] = bound_pos
            positions = np.arange(n, dtype=np.int64)
            prefix = positions < cut_by_seg[seg_a]
            prefix_h = prefix[hashed]

            if self.conservative:
                per_event = span.apply_masked(prefix_h)
                self.hash_updates_acc += np.bincount(
                    seg_h, weights=per_event,
                    minlength=T).astype(np.int64)
            else:
                committed = np.flatnonzero(prefix_h)
                if len(committed):
                    for big, row in zip(self.bigs, row_h):
                        _bulk_increment(big, row[committed], max_value)
                    self.hash_updates_acc += self.num_tables * np.bincount(
                        seg_h[committed], minlength=T)
            rejected = attempts & prefix_h
            if rejected.any():
                self.rejected_acc += np.bincount(seg_h[rejected],
                                                 minlength=T)
            hit = res & prefix
            if hit.any():
                self._hits(gids[hit], seg_a[hit])
            if not len(blocking_positions):
                return
            for tenant, position in zip(tenants.tolist(),
                                        bound_pos.tolist()):
                self._flush_tenant(int(tenant))
                self._scalar_event(int(active[position]), int(tenant))
            boundaries += 1
            active = active[positions > cut_by_seg[seg_a]]

    # -- deferred accumulator hits -------------------------------------

    def _hits(self, gids: np.ndarray, seg_subset: np.ndarray) -> None:
        """Defer one accumulator hit per event (exact once flushed)."""
        self.pending_all += np.bincount(gids, minlength=self.U)
        self.acc_hits_acc += np.bincount(seg_subset, minlength=self.T)
        self.tenant_dirty[seg_subset] = True

    def _flush_tenant(self, t: int) -> None:
        """Fold tenant *t*'s deferred hits into its entry objects."""
        acc = self.accs[t]
        if self.tenant_dirty[t]:
            low, high = int(self.u_starts[t]), int(self.u_starts[t + 1])
            pending = self.pending_all[low:high]
            acc.pending += pending
            pending[:] = 0
            acc._dirty = True
            self.tenant_dirty[t] = False
        acc.flush()

    def _flush_all(self) -> None:
        """Fold every tenant's deferred hits in one group-wide pass.

        Equivalent to ``_flush_tenant`` over all tenants (the boundary
        flushes leave the per-chunk ``pending`` arrays empty, so at
        batch end the only deferred hits live in ``pending_all``), but
        with a single nonzero scan and one fold loop instead of
        per-tenant calls.
        """
        hit_ids = np.flatnonzero(self.pending_all)
        if len(hit_ids):
            pending = self.pending_all
            tenants = np.searchsorted(self.u_starts, hit_ids,
                                      side="right") - 1
            refs = self.refs_all
            threshold = self.threshold
            accs = self.accs
            for gid, count, t in zip(hit_ids.tolist(),
                                     pending[hit_ids].tolist(),
                                     tenants.tolist()):
                entry = refs[gid]
                entry.count += count
                if entry.replaceable and entry.count >= threshold:
                    entry.replaceable = False
                    acc = accs[t]
                    acc.replaceable -= 1
                    acc.table.replaceable_count -= 1
            pending[hit_ids] = 0
        self.tenant_dirty[:] = False

    # -- exact scalar steps --------------------------------------------

    def _scalar_span(self, active: np.ndarray) -> None:
        """Per-event reference over the frontier (degenerate windows).

        Packed order is tenant-major, so walking *active* in order
        equals running each tenant's scalar span back to back.
        """
        for t in range(self.T):
            self._flush_tenant(t)
        seg = self.seg
        for position in active.tolist():
            self._scalar_event(position, int(seg[position]))

    def _scalar_event(self, position: int, t: int) -> None:
        """One exact ``observe`` step at packed *position* for tenant
        *t*, against the packed counter arrays.  The tenant's deferred
        hits must already be flushed (victim selection reads entry
        counts and replaceable flags)."""
        profiler = self.profilers[t]
        acc = self.accs[t]
        stats = profiler.stats
        shielding = bool(self.shield[t])
        resetting = self.reset[t]
        threshold = self.threshold
        max_value = self.max_value
        event = (int(self.pcs_all[position]),
                 int(self.values_all[position]))
        entry = profiler.accumulator.raw_entries().get(event)
        if shielding and entry is not None:
            acc.hit_entry(entry)
            return
        local_id = int(self.event_ids[position]) - int(self.u_starts[t])
        if self.single:
            index = int(self.rows[0][position])
            counters = self.bigs[0]
            count = int(counters[index]) + 1
            if count > max_value:
                count = max_value
            counters[index] = count
            stats.hash_updates += 1
            if count >= threshold and entry is None:
                if acc.insert(event, local_id, count):
                    stats.promotions += 1
                    if resetting:
                        counters[index] = 0
                else:
                    stats.rejected_promotions += 1
        else:
            row = [int(column[position]) for column in self.rows]
            num_tables = self.num_tables
            if self.conservative:
                current = [int(self.bigs[j][row[j]])
                           for j in range(num_tables)]
                minimum = min(current)
                estimate = minimum + 1
                if estimate > max_value:
                    estimate = max_value
                for j in range(num_tables):
                    if current[j] == minimum:
                        bumped = current[j] + 1
                        if bumped > max_value:
                            bumped = max_value
                        self.bigs[j][row[j]] = bumped
                        stats.hash_updates += 1
            else:
                minimum = max_value
                estimate = max_value
                for j in range(num_tables):
                    before = int(self.bigs[j][row[j]])
                    bumped = before + 1
                    if bumped > max_value:
                        bumped = max_value
                    self.bigs[j][row[j]] = bumped
                    stats.hash_updates += 1
                    if before < minimum:
                        minimum = before
                    if bumped < estimate:
                        estimate = bumped
            if minimum < threshold <= estimate and entry is None:
                if acc.insert(event, local_id, estimate):
                    stats.promotions += 1
                    if resetting:
                        for j in range(num_tables):
                            self.bigs[j][row[j]] = 0
                else:
                    stats.rejected_promotions += 1
        if not shielding and entry is not None:
            acc.hit_entry(entry)


class BatchedKernelRunner:
    """Fold many tenants' pending chunks into shared kernel dispatches.

    Stateless between ticks apart from counters; drivers keep one
    runner per shard/feeder and call :meth:`dispatch` with everything
    pending for the tick.  Requests whose profilers cannot be folded
    (scalar backends, custom hash functions, singleton groups) are fed
    through their own ``observe_array_chunk`` and still count as one
    dispatch each.  A session feeder driving the runner also counts
    the ``observe_array_chunk`` calls it makes itself for profilers
    outside the fold (``backend="vectorized"``), so :attr:`dispatches`
    always equals the number of kernel call chains issued -- the
    service worker exposes the per-tick ratio in its stats.
    """

    def __init__(self) -> None:
        #: Kernel call chains issued (one per group or solo feed, plus
        #: one per direct kernel call of a feeder driving the runner).
        self.dispatches = 0
        #: :meth:`dispatch` calls (one per driver tick).
        self.ticks = 0
        #: Non-empty tenant chunks folded in, cumulative.
        self.requests = 0
        # Group-wide accumulator scan arrays reused across ticks while
        # no table in the group changed structurally (see
        # ``_Batch._scan_entries``).
        self._scan_cache: Dict[int, tuple] = {}

    def dispatch(self, requests: Sequence[BatchRequest]) -> None:
        """Feed every request, folding compatible tenants together.

        Bit-identical to feeding each request through its profiler's
        ``observe_array_chunk`` in sequence.  Empty chunks are no-ops
        (as they are per session).  A profiler appearing several times
        has its chunks concatenated in request order, which the
        split-invariance of chunked feeding makes equivalent.
        """
        self.ticks += 1
        groups: Dict[tuple, List[BatchRequest]] = {}
        solo: List[BatchRequest] = []
        for profiler, pcs, values in requests:
            pcs = np.ascontiguousarray(pcs, dtype=np.uint64)
            values = np.ascontiguousarray(values, dtype=np.uint64)
            if not len(pcs):
                continue
            self.requests += 1
            key = _group_key(profiler)
            if key is None:
                solo.append((profiler, pcs, values))
            else:
                groups.setdefault(key, []).append((profiler, pcs, values))
        for profiler, pcs, values in solo:
            self.dispatches += 1
            profiler.observe_array_chunk(pcs, values)
        for members in groups.values():
            members = _merge_duplicates(members)
            self.dispatches += 1
            if len(members) == 1:
                profiler, pcs, values = members[0]
                profiler.observe_array_chunk(pcs, values)
                continue
            _Batch([m[0] for m in members],
                   [(m[1], m[2]) for m in members],
                   scan_cache=self._scan_cache).run()


def _merge_duplicates(members: List[BatchRequest]) -> List[BatchRequest]:
    """Concatenate chunks of profilers that appear more than once."""
    order: List[List] = []
    by_id: Dict[int, List] = {}
    for profiler, pcs, values in members:
        slot = by_id.get(id(profiler))
        if slot is None:
            slot = [profiler, [pcs], [values]]
            by_id[id(profiler)] = slot
            order.append(slot)
        else:
            slot[1].append(pcs)
            slot[2].append(values)
    out: List[BatchRequest] = []
    for profiler, pcs_list, values_list in order:
        if len(pcs_list) == 1:
            out.append((profiler, pcs_list[0], values_list[0]))
        else:
            out.append((profiler, np.concatenate(pcs_list),
                        np.concatenate(values_list)))
    return out
