"""The paper's hardware hash function family (Section 5.3).

For a tuple ``<pc, value>`` the hash index is computed as::

    npc   = flip(randomize(pc))
    nv    = randomize(value)
    index = xor_fold(npc ^ nv, index_bits)

where

* ``randomize`` substitutes every byte of its input through a 256-entry
  random number table (an S-box), magnifying the small variation between
  temporally-close PCs and values,
* ``flip`` reverses the byte order, moving the PC's variation into the
  high-order bytes so that XOR-ing with the value spreads entropy, and
* ``xor_fold(v, n)`` splits ``v`` into ``n``-bit chunks and XORs them
  down to an ``n``-bit table index.

The multi-hash architecture (Section 6) needs many *independent* hash
functions; per the paper these are obtained "by just choosing different
random number tables used by the function randomize".
:class:`HashFunctionFamily` derives any number of such functions from a
single seed.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import numpy as np

from .tuples import FIELD_BITS, ProfileTuple

#: Bytes per hashed field (64-bit fields).
_FIELD_BYTES = FIELD_BITS // 8

#: 16-bit chunks per hashed field, each with one folded lookup table.
_FOLD_CHUNKS = _FIELD_BYTES // 2

#: Size of each random substitution table -- one entry per byte value.
RANDOM_TABLE_ENTRIES = 256


def xor_fold(value: int, index_bits: int) -> int:
    """Fold *value* down to ``index_bits`` bits by XOR-ing chunks.

    ``xor-fold(v, n) splits v into chunks of n-bits and xors those
    chunks to get the final value`` (Section 5.3).
    """
    if index_bits <= 0:
        raise ValueError(f"index_bits must be positive, got {index_bits}")
    mask = (1 << index_bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= index_bits
    return folded


def flip(value: int, width_bytes: int = _FIELD_BYTES) -> int:
    """Reverse the byte order of *value* (``flip(v)`` in the paper)."""
    flipped = 0
    for _ in range(width_bytes):
        flipped = (flipped << 8) | (value & 0xFF)
        value >>= 8
    return flipped


class TupleHashFunction:
    """One hardware hash function: ``xor_fold(flip(rand(pc)) ^ rand(value))``.

    The substitution tables would be hardwired into the table lookup in a
    real implementation; here they are derived deterministically from
    *seed* so experiments are reproducible.  A separate 256-entry byte
    table is drawn for every byte position of each field, which keeps the
    substitution a pure per-byte operation (implementable as eight
    parallel 256x8 ROMs per field) while decorrelating byte positions.

    Parameters
    ----------
    index_bits:
        Width of the produced index; the function addresses a table of
        ``2**index_bits`` counters.
    seed:
        Seed for the random number tables.  Functions built from
        different seeds are independent in the sense required by the
        multi-hash analysis of Section 6.2.
    """

    __slots__ = ("index_bits", "table_size", "_pc_tables", "_value_tables",
                 "_folds", "_fold_base")

    def __init__(self, index_bits: int, seed: int) -> None:
        if not 1 <= index_bits <= 30:
            raise ValueError(
                f"index_bits must be in [1, 30] for a realistic table, "
                f"got {index_bits}")
        self.index_bits = index_bits
        self.table_size = 1 << index_bits
        rng = random.Random(seed)
        self._pc_tables = _draw_tables(rng)
        self._value_tables = _draw_tables(rng)
        self._folds = None
        self._fold_base = 0

    def randomize_pc(self, pc: int) -> int:
        """Apply the per-byte substitution to a PC field."""
        return _substitute(pc, self._pc_tables)

    def randomize_value(self, value: int) -> int:
        """Apply the per-byte substitution to a value field."""
        return _substitute(value, self._value_tables)

    def __call__(self, event: ProfileTuple) -> int:
        """Return the table index for *event*."""
        pc, value = event
        npc = flip(self.randomize_pc(pc))
        nv = self.randomize_value(value)
        return xor_fold(npc ^ nv, self.index_bits)

    def index_array(self, pcs: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`__call__` over arrays of PCs and values.

        Used by trace preprocessing to hash a whole interval at once.
        Inputs must be ``uint64`` arrays of equal shape; the result is an
        ``int64`` array of table indices.

        The whole ``xor_fold(flip(rand(pc)) ^ rand(value))`` pipeline is
        XOR-linear in the per-byte substitutions, so it precomputes into
        one folded lookup table per 16-bit input chunk (zero-normalized:
        entry 0 is 0, with the all-zero-bytes contribution hoisted into a
        constant).  A chunk above the data's actual width then costs
        nothing, which collapses the usual case -- PCs and values far
        narrower than 64 bits -- to a couple of gathers and XORs.
        """
        folds, base = self.fold_tables()
        out = None
        mask = np.uint64(0xFFFF)
        for first, field in ((0, pcs), (_FOLD_CHUNKS, values)):
            top = int(field.max()) if field.size else 0
            for chunk in range(_FOLD_CHUNKS):
                if chunk and not top >> (16 * chunk):
                    break
                piece = (field if chunk == 0 and top < 0x10000
                         else (field >> np.uint64(16 * chunk)) & mask)
                gathered = folds[first + chunk].take(piece.astype(np.intp))
                if out is None:
                    out = gathered
                else:
                    out ^= gathered
        if base:
            out ^= np.int32(base)
        return out.astype(np.int64)

    def fold_tables(self) -> Tuple[np.ndarray, int]:
        """The folded chunk tables and their constant, built on first use.

        Row ``c`` of the ``(8, 65536)`` ``int32`` array folds the PC's
        ``c``-th 16-bit chunk (low chunk first) and row ``4 + c`` the
        value's; a field's index contribution is the XOR of its chunks'
        rows, and the index is that of both fields XOR the constant.
        The compiled per-event loop (:mod:`repro.core.kernels`) hashes
        from the same tables.
        """
        if self._folds is None:
            self._build_fold_tables()
        return self._folds, self._fold_base

    def _build_fold_tables(self) -> None:
        """Precompute the zero-normalized folded 16-bit chunk tables."""
        per_byte_pc = []
        per_byte_value = []
        for position in range(_FIELD_BYTES):
            flipped = _FIELD_BYTES - 1 - position
            per_byte_pc.append(np.array(
                [xor_fold(entry << (8 * flipped), self.index_bits)
                 for entry in self._pc_tables[position]], dtype=np.int32))
            per_byte_value.append(np.array(
                [xor_fold(entry << (8 * position), self.index_bits)
                 for entry in self._value_tables[position]], dtype=np.int32))
        base = 0
        folds = np.empty((2 * _FOLD_CHUNKS, 1 << 16), dtype=np.int32)
        for first, per_byte in ((0, per_byte_pc),
                                (_FOLD_CHUNKS, per_byte_value)):
            for chunk in range(_FOLD_CHUNKS):
                low = per_byte[2 * chunk]
                high = per_byte[2 * chunk + 1]
                table = low[np.newaxis, :] ^ high[:, np.newaxis]
                zero = int(table[0, 0])
                base ^= zero
                folds[first + chunk] = (table ^ zero).reshape(-1)
        self._folds = folds
        self._fold_base = base


def _draw_tables(rng: random.Random) -> List[List[int]]:
    """Draw one 256-entry random byte table per byte position."""
    return [[rng.getrandbits(8) for _ in range(RANDOM_TABLE_ENTRIES)]
            for _ in range(_FIELD_BYTES)]


def _substitute(value: int, tables: Sequence[Sequence[int]]) -> int:
    """Per-byte substitution of *value* through per-position tables."""
    out = 0
    for position in range(_FIELD_BYTES):
        byte = (value >> (8 * position)) & 0xFF
        out |= tables[position][byte] << (8 * position)
    return out


class HashFunctionFamily:
    """A family of independent hash functions sharing one master seed.

    ``family[i]`` is the i-th function; the family grows lazily, so a
    multi-hash profiler with ``n`` tables simply takes ``family.take(n)``.
    Two families with the same seed produce identical functions, which
    makes profiler runs reproducible.
    """

    def __init__(self, index_bits: int, seed: int = 0x5EED) -> None:
        self.index_bits = index_bits
        self.seed = seed
        self._functions: List[TupleHashFunction] = []

    def __getitem__(self, position: int) -> TupleHashFunction:
        if position < 0:
            raise IndexError("hash function index must be non-negative")
        while len(self._functions) <= position:
            ordinal = len(self._functions)
            self._functions.append(
                TupleHashFunction(self.index_bits,
                                  seed=_derive_seed(self.seed, ordinal)))
        return self._functions[position]

    def take(self, count: int) -> List[TupleHashFunction]:
        """Return the first *count* functions of the family."""
        return [self[i] for i in range(count)]


def _derive_seed(master: int, ordinal: int) -> int:
    """Mix *ordinal* into *master* (splitmix64 finalizer)."""
    mixed = (master + 0x9E3779B97F4A7C15 * (ordinal + 1)) & (2 ** 64 - 1)
    mixed ^= mixed >> 30
    mixed = (mixed * 0xBF58476D1CE4E5B9) & (2 ** 64 - 1)
    mixed ^= mixed >> 27
    mixed = (mixed * 0x94D049BB133111EB) & (2 ** 64 - 1)
    mixed ^= mixed >> 31
    return mixed
