"""Tests for the paper's hash function family (repro.core.hashing)."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hashing
from repro.core.config import SHORT_INTERVAL, best_multi_hash
from repro.core.hashing import (HashFunctionFamily, TupleHashFunction, flip,
                                xor_fold)
from repro.core.multi_hash import build_profiler

U64 = st.integers(min_value=0, max_value=2 ** 64 - 1)


class TestXorFold:
    def test_value_below_width_is_identity(self):
        assert xor_fold(0x1F, 9) == 0x1F

    def test_folds_chunks(self):
        # Two 8-bit chunks: 0xAB ^ 0xCD.
        assert xor_fold(0xABCD, 8) == 0xAB ^ 0xCD

    def test_zero(self):
        assert xor_fold(0, 11) == 0

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            xor_fold(5, 0)

    @given(U64, st.integers(min_value=1, max_value=30))
    def test_result_within_width(self, value, bits):
        assert 0 <= xor_fold(value, bits) < (1 << bits)

    @given(U64, U64, st.integers(min_value=1, max_value=30))
    def test_linear_over_xor(self, a, b, bits):
        # xor-fold is a GF(2)-linear map, so it distributes over XOR.
        assert (xor_fold(a, bits) ^ xor_fold(b, bits)
                == xor_fold(a ^ b, bits))


class TestFlip:
    def test_reverses_bytes(self):
        assert flip(0x0102030405060708) == 0x0807060504030201

    @given(U64)
    def test_involution(self, value):
        assert flip(flip(value)) == value

    def test_moves_low_byte_high(self):
        assert flip(0xFF) == 0xFF << 56


class TestTupleHashFunction:
    def test_index_in_range(self):
        function = TupleHashFunction(index_bits=9, seed=1)
        for event in [(0, 0), (0x1000, 42), (2 ** 64 - 1, 2 ** 64 - 1)]:
            assert 0 <= function(event) < 512

    def test_deterministic_per_seed(self):
        a = TupleHashFunction(9, seed=7)
        b = TupleHashFunction(9, seed=7)
        events = [(i * 8, i * i) for i in range(100)]
        assert [a(e) for e in events] == [b(e) for e in events]

    def test_different_seeds_differ(self):
        a = TupleHashFunction(9, seed=7)
        b = TupleHashFunction(9, seed=8)
        events = [(i * 8, i * i) for i in range(200)]
        assert [a(e) for e in events] != [b(e) for e in events]

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            TupleHashFunction(0, seed=1)
        with pytest.raises(ValueError):
            TupleHashFunction(31, seed=1)

    def test_distribution_is_balanced(self):
        # Section 5.3: "a very even distribution using the above hash
        # function".  Hash 8K distinct tuples into 256 buckets and check
        # occupancy against a loose chi-square-style bound.
        function = TupleHashFunction(8, seed=3)
        counts = [0] * 256
        for i in range(8192):
            counts[function((0x1000 + 8 * i, i * 2654435761))] += 1
        mean = 8192 / 256
        # Poisson-ish spread: no bucket wildly over- or under-loaded.
        assert max(counts) < mean * 2.2
        assert min(counts) > mean * 0.2

    @given(st.lists(st.tuples(U64, U64), min_size=1, max_size=50,
                    unique=True))
    @settings(max_examples=25, deadline=None)
    def test_vectorized_matches_scalar(self, events):
        function = TupleHashFunction(10, seed=11)
        pcs = np.array([e[0] for e in events], dtype=np.uint64)
        values = np.array([e[1] for e in events], dtype=np.uint64)
        vectorized = function.index_array(pcs, values).tolist()
        assert vectorized == [function(e) for e in events]


class TestHashFunctionFamily:
    def test_members_are_pairwise_independent_ish(self):
        family = HashFunctionFamily(index_bits=8, seed=42)
        first, second = family.take(2)
        events = [(i * 8, i) for i in range(1000)]
        collisions = sum(1 for e in events if first(e) == second(e))
        # Two independent 8-bit functions agree ~1/256 of the time.
        assert collisions < 1000 * (4 / 256)

    def test_reproducible(self):
        one = HashFunctionFamily(9, seed=5).take(3)
        two = HashFunctionFamily(9, seed=5).take(3)
        event = (0xDEAD, 0xBEEF)
        assert [f(event) for f in one] == [f(event) for f in two]

    def test_grows_lazily(self):
        family = HashFunctionFamily(9, seed=5)
        assert family[4].index_bits == 9
        assert len(family.take(5)) == 5

    def test_rejects_negative_index(self):
        with pytest.raises(IndexError):
            HashFunctionFamily(9)[(-1)]

    def test_equal_families_share_functions(self):
        shared = HashFunctionFamily(9, seed=5).take(3)
        again = HashFunctionFamily(9, seed=5).take(3)
        assert all(one is two for one, two in zip(shared, again))
        assert HashFunctionFamily(9, seed=6)[0] is not shared[0]
        assert HashFunctionFamily(10, seed=5)[0] is not shared[0]
        # A directly built function is its own, equal but unshared.
        direct = TupleHashFunction(9, seed=hashing._derive_seed(5, 0))
        assert direct is not shared[0]
        assert direct((0xDEAD, 0xBEEF)) == shared[0]((0xDEAD, 0xBEEF))

    def test_unheld_functions_are_freed(self):
        function = HashFunctionFamily(9, seed=0xF4EE)[0]
        key = (9, hashing._derive_seed(0xF4EE, 0))
        assert hashing._SHARED[key] is function
        alive = weakref.ref(function)
        del function
        gc.collect()
        assert alive() is None
        assert key not in hashing._SHARED

    def test_profilers_of_one_config_share_fold_tables(self):
        config = best_multi_hash(SHORT_INTERVAL)
        first, second = build_profiler(config), build_profiler(config)
        assert first.hash_functions[0].fold_tables()[0] is \
            second.hash_functions[0].fold_tables()[0]
