"""The compiled per-event loop behind the ``vectorized`` backend.

The scalar profilers (:mod:`repro.core.single_hash`,
:mod:`repro.core.multi_hash`) are the spec: one Python ``observe()``
per event.  ``_kernel.c`` is that same loop in C -- a shielded
accumulator lookup, the hash of every table from its folded 16-bit
chunk tables, the counter update, the promotion test and at most one
accumulator insert per event -- so the two profilers here are
**bit-identical** to the spec: same candidates in the same order, same
counts, same :class:`~repro.core.base.ProfilerStats`, checked by the
differential parity harness (``tests/test_kernel_parity.py``).

:func:`library` compiles the source once with the system C compiler
(``$CC``, default ``cc``, flags ``-O2 -shared -fPIC``) into
``${XDG_CACHE_HOME:-~/.cache}/repro/``, under a file name carrying the
SHA-256 of the source and flags, and loads it with :mod:`ctypes`.  A
later process loads the cached file without running the compiler.
The file is written by atomic rename, so processes building at once
(server workers, test runs, the experiment pool) never load a partial
one; nothing is ever written into the source tree.  When no library
can be built, ``backend="auto"`` builds the scalar classes and an
explicit ``vectorized`` raises.

Every call of :meth:`_CompiledLoop.observe_array_chunk` is one
``ctypes`` call over persistent arrays whose addresses are taken once,
at construction.  ``ctypes`` releases the GIL for the duration of the
call; nothing in this package relies on that.

The same library counts every ``(pc, value)`` pair of an interval for
the perfect profiler the hardware profiles are scored against
(:class:`HashedPairCounts`, a seeded hash table);
:func:`count_pairs` takes it when it loads, else one NumPy sort
(:class:`SortedPairCounts`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .base import ProfilerStats
from .config import ProfilerConfig
from .hashing import TupleHashFunction
from .multi_hash import MultiHashProfiler
from .single_hash import SingleHashProfiler
from .tables import AccumulatorEntry, CounterTable
from .tuples import ProfileTuple

#: Structured dtype giving tuples a total order for ``numpy`` sorting.
PAIR_DTYPE = np.dtype([("p", np.uint64), ("v", np.uint64)])

#: Widest saturating counter the int64 counter tables hold with room
#: for the increment before saturation.
MAX_KERNEL_COUNTER_BITS = 62

_SOURCE = Path(__file__).with_name("_kernel.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")

#: Running totals of the compiled loop, as ``COUNT_*`` in ``_kernel.c``.
(_EVENTS, _HITS, _UPDATES, _PROMOTIONS, _REJECTED, _EVICTIONS, _SIZE,
 _REPLACEABLE, _NEXT_STAMP, _REINDEX, _COUNT_FIELDS) = range(11)

#: The replaceable accumulator entry state, as in ``_kernel.c``.
_ENTRY_REPLACEABLE = 2

#: Chunks up to this many events are copied into per-profiler staged
#: arrays rather than passed by address (see ``observe_array_chunk``).
_STAGED_EVENTS = 1024

#: ``(library or None, why it is None)`` once :func:`library` ran.
_LOADED: Optional[Tuple[Optional[ctypes.CDLL], str]] = None


def library() -> Optional[ctypes.CDLL]:
    """The compiled loop, built or loaded on first use; ``None`` when
    it cannot be built (see :func:`build_error`)."""
    global _LOADED
    if _LOADED is None:
        _LOADED = _load()
    return _LOADED[0]


def build_error() -> str:
    """Why :func:`library` is ``None``; empty when it loaded."""
    library()
    return _LOADED[1]


def _load() -> Tuple[Optional[ctypes.CDLL], str]:
    try:
        source = _SOURCE.read_bytes()
        digest = hashlib.sha256(
            source + " ".join(_CFLAGS).encode()).hexdigest()
        cache = Path(os.environ.get("XDG_CACHE_HOME")
                     or Path.home() / ".cache") / "repro"
        path = cache / f"_kernel-{digest}.so"
        if not path.exists():
            _compile(path)
        loaded = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError) as error:
        return None, str(error)
    loaded.repro_observe.argtypes = (ctypes.c_void_p,) * 3 + (
        ctypes.c_int64,)
    loaded.repro_observe.restype = None
    loaded.repro_count_pairs.argtypes = (ctypes.c_void_p,) * 3 + (
        ctypes.c_int64,)
    loaded.repro_count_pairs.restype = None
    loaded.repro_lookup_pairs.argtypes = (ctypes.c_void_p,) * 3 + (
        ctypes.c_int64, ctypes.c_void_p)
    loaded.repro_lookup_pairs.restype = None
    return loaded, ""


def _compile(path: Path) -> None:
    """Compile ``_kernel.c`` to *path*, atomically."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, partial = tempfile.mkstemp(prefix=".kernel-", suffix=".so",
                                       dir=path.parent)
    os.close(handle)
    try:
        command = [*shlex.split(os.environ.get("CC") or "cc"), *_CFLAGS,
                   "-o", partial, str(_SOURCE)]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=300)
        if done.returncode:
            raise OSError(f"{' '.join(command)} exited with "
                          f"{done.returncode} {done.stderr.strip()}"
                          .rstrip())
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


class NumpyCounterTable(CounterTable):
    """A :class:`CounterTable` backed by an ``int64`` ndarray.

    Scalar accessors keep exact :class:`CounterTable` semantics (and
    plain-``int`` returns) so per-event code paths still work; the
    compiled loop updates :attr:`array` in place.
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
        """The raw counter array."""
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


#: One entry of the pair table, as ``repro_pair`` in ``_kernel.c``.
_PAIR_ENTRY = np.dtype([("pc", np.uint64), ("value", np.uint64),
                        ("count", np.int64)])

#: Seed of the pair table's slot hash, drawn once per process, so that
#: no one can craft pairs that share one probe chain.  Entries are
#: numbered in first-seen order, so no count, order or candidate
#: depends on it.
_PAIR_SEED = (int.from_bytes(os.urandom(8), "little"),
              int.from_bytes(os.urandom(8), "little"))


class _PairTable(ctypes.Structure):
    """``repro_pair_table`` of ``_kernel.c``, field for field."""

    _fields_ = [("seed", ctypes.c_uint64 * 2), ("slot_mask", ctypes.c_int64),
                ("size", ctypes.c_int64), ("slots", ctypes.c_void_p),
                ("entries", ctypes.c_void_p)]


def _as_events(events: Sequence[ProfileTuple]
               ) -> Tuple[np.ndarray, np.ndarray]:
    """The pcs and the values of *events*, as contiguous ``uint64``
    arrays."""
    pairs = np.array(events, dtype=np.uint64).reshape(-1, 2)
    return (np.ascontiguousarray(pairs[:, 0]),
            np.ascontiguousarray(pairs[:, 1]))


class HashedPairCounts:
    """Exact counts of the ``(pc, value)`` pairs of an interval's
    pieces, counted by the compiled loop's pair table.

    ``repro_count_pairs`` adds each piece to an open-addressed table:
    entries hold every distinct pair and its count in first-seen order,
    the slots hold entry numbers.  Both are sized here from the pieces'
    event count -- at most one entry per event, at least two slots per
    entry -- and live as long as this object.  :meth:`at_least` sorts
    only the entries at or over a threshold; :meth:`lookup` probes the
    table.
    """

    def __init__(self, pieces: Sequence[Tuple[np.ndarray, np.ndarray]],
                 seed: Tuple[int, int] = _PAIR_SEED) -> None:
        loaded = library()
        if loaded is None:
            raise ValueError(f"the compiled kernel could not be built "
                             f"({build_error()}); use SortedPairCounts")
        for pcs, values in pieces:
            if len(pcs) != len(values):
                raise ValueError(f"pcs and values differ in length: "
                                 f"{len(pcs)} vs {len(values)}")
        total = sum(len(pcs) for pcs, _ in pieces)
        if total >= 1 << 31:
            raise ValueError(f"the pair table numbers entries in int32; "
                             f"{total} events is too many")
        #: Entry numbers by slot, -1 where empty.
        self.slots = np.full(1 << (2 * total - 1).bit_length(), -1,
                             dtype=np.int32)
        self._entries = np.empty(total, dtype=_PAIR_ENTRY)
        self._table = _PairTable(
            seed=(ctypes.c_uint64 * 2)(*seed),
            slot_mask=len(self.slots) - 1, size=0,
            slots=self.slots.ctypes.data,
            entries=self._entries.ctypes.data)
        self._address = ctypes.addressof(self._table)
        self._lookup = loaded.repro_lookup_pairs
        if 1 < len(pieces) and total < _STAGED_EVENTS * len(pieces):
            # Small pieces (a service stream's pushes) are joined: one
            # call over a copy costs less than handing ctypes two
            # array addresses per piece.
            pieces = [(np.concatenate([pcs for pcs, _ in pieces]),
                       np.concatenate([values for _, values in pieces]))]
        for pcs, values in pieces:
            if len(pcs):
                pcs = np.ascontiguousarray(pcs, dtype=np.uint64)
                values = np.ascontiguousarray(values, dtype=np.uint64)
                loaded.repro_count_pairs(self._address, pcs.ctypes.data,
                                         values.ctypes.data, len(pcs))
        #: Distinct pairs in the pieces.
        self.distinct = self._table.size

    def at_least(self, threshold: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(pcs, values, counts)`` of the pairs counted at least
        *threshold* times, sorted ``pc``-major."""
        entries = self._entries[:self.distinct]
        over = entries[entries["count"] >= threshold]
        over = over[np.lexsort((over["value"], over["pc"]))]
        return over["pc"], over["value"], over["count"]

    def lookup(self, events: Sequence[ProfileTuple]) -> List[int]:
        """The count of each of *events* (0 for a pair not seen)."""
        pcs, values = _as_events(events)
        counts = np.empty(len(pcs), dtype=np.int64)
        self._lookup(self._address, pcs.ctypes.data, values.ctypes.data,
                     len(pcs), counts.ctypes.data)
        return counts.tolist()


class SortedPairCounts:
    """:class:`HashedPairCounts` by one NumPy ``lexsort``: the count
    where the compiled loop cannot be built.

    The pairs of all pieces are sorted ``pc``-major into a
    ``PAIR_DTYPE`` array, and each unique pair's count is the length of
    its run, so no per-event tuple-id array is ever built.
    :meth:`lookup` is a binary search of the sorted pairs.
    """

    def __init__(self, pieces: Sequence[Tuple[np.ndarray, np.ndarray]]
                 ) -> None:
        pieces = [(pcs, values) for pcs, values in pieces if len(pcs)]
        if not pieces:
            self._unique = np.empty(0, dtype=PAIR_DTYPE)
            self._counts = np.empty(0, dtype=np.int64)
        else:
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
            self._unique = np.empty(len(firsts), dtype=PAIR_DTYPE)
            self._unique["p"] = pcs[firsts]
            self._unique["v"] = values[firsts]
            self._counts = np.diff(firsts, append=len(pcs))
        #: Distinct pairs in the pieces.
        self.distinct = len(self._unique)

    def at_least(self, threshold: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """As :meth:`HashedPairCounts.at_least`."""
        over = self._counts >= threshold
        return (self._unique["p"][over], self._unique["v"][over],
                self._counts[over])

    def lookup(self, events: Sequence[ProfileTuple]) -> List[int]:
        """As :meth:`HashedPairCounts.lookup`."""
        keys = np.empty(len(events), dtype=PAIR_DTYPE)
        keys["p"], keys["v"] = _as_events(events)
        positions = np.searchsorted(self._unique, keys)
        counts = np.zeros(len(keys), dtype=np.int64)
        inside = np.flatnonzero(positions < len(self._unique))
        found = inside[self._unique[positions[inside]] == keys[inside]]
        counts[found] = self._counts[positions[found]]
        return counts.tolist()


#: Either count: both give the same ``distinct``,
#: :meth:`~HashedPairCounts.at_least` and
#: :meth:`~HashedPairCounts.lookup`.
PairCounts = Union[HashedPairCounts, SortedPairCounts]


def count_pairs(pieces: Sequence[Tuple[np.ndarray, np.ndarray]]
                ) -> PairCounts:
    """Exact counts of the ``(pc, value)`` pairs over *pieces* of
    ``uint64`` arrays: :class:`HashedPairCounts` when the compiled loop
    loads, else :class:`SortedPairCounts`."""
    if library() is None:
        return SortedPairCounts(pieces)
    return HashedPairCounts(pieces)


class CompiledAccumulator:
    """The accumulator table of the compiled loop, held in arrays.

    Entries ``0 .. len - 1`` of the parallel arrays are resident, each
    with a pc, value, count, allocation stamp and state (pinned or
    replaceable); the loop finds them through the open-addressed index
    :attr:`slots` and applies :class:`~repro.core.tables.
    AccumulatorTable`'s insert, victim and hit rules itself.  This
    class keeps that table's read API.  Entries are reported in stamp
    order, which is the scalar table's dict (insertion) order: the
    snapshots sort candidates stably by count and the error sums follow
    the same order, so any other order would change their digests.
    """

    def __init__(self, capacity: int, counts: np.ndarray) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: The loop's running totals (shared with the profiler).
        self.counts = counts
        self.pc = np.zeros(capacity, dtype=np.uint64)
        self.value = np.zeros(capacity, dtype=np.uint64)
        self.count = np.zeros(capacity, dtype=np.int64)
        self.stamp = np.zeros(capacity, dtype=np.int64)
        self.state = np.zeros(capacity, dtype=np.int8)
        # Evictions between two rebuilds leave at most ``capacity``
        # deleted slots beside ``capacity`` live ones: evicting needs a
        # replaceable entry, and only end_interval makes those.  Four
        # slots per entry keep the index at most half full.
        self.slots = np.full(1 << (4 * capacity - 1).bit_length(), -1,
                             dtype=np.int32)

    def __len__(self) -> int:
        return int(self.counts[_SIZE])

    @property
    def rejected_inserts(self) -> int:
        """Promotions dropped because every entry was pinned."""
        return int(self.counts[_REJECTED])

    @property
    def evictions(self) -> int:
        """Retained entries evicted to make room for a promotion."""
        return int(self.counts[_EVICTIONS])

    def _stamp_order(self) -> np.ndarray:
        return np.argsort(self.stamp[:len(self)])

    def raw_entries(self) -> Dict[ProfileTuple, AccumulatorEntry]:
        """A copy of the resident entries, in stamp order."""
        order = self._stamp_order()
        return {(pc, value): AccumulatorEntry(
                    event=(pc, value), count=count,
                    replaceable=state == _ENTRY_REPLACEABLE, stamp=stamp)
                for pc, value, count, state, stamp in zip(
                    self.pc[order].tolist(), self.value[order].tolist(),
                    self.count[order].tolist(), self.state[order].tolist(),
                    self.stamp[order].tolist())}

    def end_interval(self, threshold_count: int,
                     retaining: bool) -> Dict[ProfileTuple, int]:
        """:meth:`AccumulatorTable.end_interval` on the arrays.

        The retained entries move to the front in stamp order; the loop
        rebuilds its index from them on its next call.
        """
        order = self._stamp_order()
        over = order[self.count[order] >= threshold_count]
        report = dict(zip(zip(self.pc[over].tolist(),
                              self.value[over].tolist()),
                          self.count[over].tolist()))
        kept = len(over) if retaining else 0
        for column in (self.pc, self.value, self.stamp):
            column[:kept] = column[over[:kept]]
        self.count[:kept] = 0
        self.state[:kept] = _ENTRY_REPLACEABLE
        self.counts[_SIZE] = self.counts[_REPLACEABLE] = kept
        self.counts[_REINDEX] = 1
        return report


class _State(ctypes.Structure):
    """``repro_state`` of ``_kernel.c``, field for field."""

    _fields_ = ([(name, ctypes.c_int64) for name in (
        "num_tables", "threshold", "max_value", "capacity", "slot_mask",
        "single", "conservative", "shielding", "resetting")]
        + [(name, ctypes.c_void_p) for name in (
            "counts", "counters", "folds", "fold_base", "work",
            "entry_pc", "entry_value", "entry_count", "entry_stamp",
            "entry_state", "slots")])


def _pointers(arrays) -> ctypes.Array:
    return (ctypes.c_void_p * len(arrays))(*[a.ctypes.data for a in arrays])


class _CompiledLoop:
    """What both compiled-loop profilers share: one ``repro_observe``
    call per chunk, over state the scalar class's ``observe`` would
    otherwise keep in Python objects."""

    supports_array_chunks = True

    def _attach(self, tables, functions: Sequence[TupleHashFunction],
                single: bool) -> None:
        """Allocate the loop's state and take every address once."""
        loaded = library()
        if loaded is None:
            raise ValueError(f"the compiled kernel could not be built "
                             f"({build_error()}); use backend='scalar'")
        config = self.config
        self._counts = np.zeros(_COUNT_FIELDS, dtype=np.int64)
        accumulator = CompiledAccumulator(config.accumulator_capacity,
                                          self._counts)
        self.accumulator = accumulator
        folds = [function.fold_tables() for function in functions]
        self._fold_base = np.array([base for _, base in folds],
                                   dtype=np.int64)
        self._work = np.zeros(2 * len(tables), dtype=np.int64)
        self._counter_pointers = _pointers([table.array
                                            for table in tables])
        self._fold_pointers = _pointers([table for table, _ in folds])
        self._state = _State(
            num_tables=len(tables),
            threshold=self.interval.threshold_count,
            max_value=tables[0].max_value,
            capacity=accumulator.capacity,
            slot_mask=len(accumulator.slots) - 1,
            single=single,
            conservative=bool(config.conservative_update),
            shielding=config.shielding,
            resetting=config.resetting,
            counts=self._counts.ctypes.data,
            counters=ctypes.addressof(self._counter_pointers),
            folds=ctypes.addressof(self._fold_pointers),
            fold_base=self._fold_base.ctypes.data,
            work=self._work.ctypes.data,
            entry_pc=accumulator.pc.ctypes.data,
            entry_value=accumulator.value.ctypes.data,
            entry_count=accumulator.count.ctypes.data,
            entry_stamp=accumulator.stamp.ctypes.data,
            entry_state=accumulator.state.ctypes.data,
            slots=accumulator.slots.ctypes.data)
        self._address = ctypes.addressof(self._state)
        self._observe = loaded.repro_observe
        self._staged = np.zeros((2, _STAGED_EVENTS), dtype=np.uint64)
        self._staged_pcs = self._staged[0].ctypes.data
        self._staged_values = self._staged[1].ctypes.data

    @property
    def stats(self) -> ProfilerStats:
        """The profiler's stats, brought up to date with the loop's
        running totals (evictions still follow at interval close, as in
        the scalar profilers)."""
        stats = self._stats
        (stats.events, stats.accumulator_hits, stats.hash_updates,
         stats.promotions, stats.rejected_promotions) = \
            self._counts[:_EVICTIONS].tolist()
        return stats

    @stats.setter
    def stats(self, stats: ProfilerStats) -> None:
        self._stats = stats

    def observe(self, event: ProfileTuple) -> None:
        self.observe_chunk([event])

    def observe_chunk(self, events, index_lists=None) -> None:
        if not isinstance(events, (list, tuple)):
            events = list(events)
        if events:
            pairs = np.array(events, dtype=np.uint64)
            self.observe_array_chunk(pairs[:, 0], pairs[:, 1])

    def observe_array_chunk(self, pcs: np.ndarray,
                            values: np.ndarray) -> None:
        size = len(pcs)
        if len(values) != size:
            raise ValueError(f"pcs and values differ in length: "
                             f"{size} vs {len(values)}")
        if not size:
            return
        if size <= _STAGED_EVENTS:
            # numpy takes about 2 us to hand out an array's address,
            # more than copying a small chunk into the staged arrays,
            # whose addresses were taken once.
            self._staged[0, :size] = pcs
            self._staged[1, :size] = values
            self._observe(self._address, self._staged_pcs,
                          self._staged_values, size)
        else:
            pcs = np.ascontiguousarray(pcs, dtype=np.uint64)
            values = np.ascontiguousarray(values, dtype=np.uint64)
            self._observe(self._address, pcs.ctypes.data,
                          values.ctypes.data, size)
        self._events_this_interval += size


class VectorizedSingleHashProfiler(_CompiledLoop, SingleHashProfiler):
    """:class:`SingleHashProfiler` run by the compiled loop."""

    def __init__(self, config: ProfilerConfig,
                 hash_function: Optional[TupleHashFunction] = None) -> None:
        super().__init__(config, hash_function)
        self.table = NumpyCounterTable(config.entries_per_table,
                                       config.counter_bits)
        self._attach([self.table], [self.hash_function], single=True)

    # In the class's own namespace, so that ``perfbench/tracing.py``
    # can time the two architectures' calls apart.
    observe_array_chunk = _CompiledLoop.observe_array_chunk


class VectorizedMultiHashProfiler(_CompiledLoop, MultiHashProfiler):
    """:class:`MultiHashProfiler` (``C0`` or ``C1``) run by the
    compiled loop."""

    def __init__(self, config: ProfilerConfig,
                 hash_functions: Optional[Sequence[TupleHashFunction]] = None
                 ) -> None:
        super().__init__(config, hash_functions)
        self.tables = [
            NumpyCounterTable(config.entries_per_table, config.counter_bits)
            for _ in range(config.num_tables)
        ]
        self._attach(self.tables, self.hash_functions, single=False)

    observe_array_chunk = _CompiledLoop.observe_array_chunk
