"""Exact interval ground truth, checked against ``collections.Counter``.

The perfect profiler every hardware profile is scored against
(:func:`repro.profiling.session._interval_truth`) counts with
:func:`repro.core.kernels.count_pairs`: the compiled loop's seeded pair
table (:class:`~repro.core.kernels.HashedPairCounts`) or, where it
cannot be built, one NumPy sort
(:class:`~repro.core.kernels.SortedPairCounts`).  Both are checked here
against a plain ``Counter`` over the same pieces, so a bug in the truth
step cannot hide behind a reference that shares it.  Each check runs on
every count this build has (:func:`each_count`): the sorted count is called
directly, so it is covered wherever the suite runs.  Inputs cover both
narrow fields (below 2**32) and full 64-bit fields.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import IntervalProfile
from repro.core.kernels import HashedPairCounts, SortedPairCounts, library
from repro.profiling.session import _interval_truth, _IntervalTruth
from repro.workloads.analysis import _count_interval
from repro.workloads.benchmarks import benchmark_generator

Piece = Tuple[np.ndarray, np.ndarray]

#: Small pools so that pairs repeat and counts exceed one.
NARROW_PCS = [0, 1, 7, 0x400000, 0xFFFFFFFF]
NARROW_VALUES = [0, 3, 0xFFFF, 0xFFFFFFFE]
WIDE_PCS = [0, 5, 0x6000000F8, 1 << 63, (1 << 64) - 1]
WIDE_VALUES = [0, 2, 1 << 32, 0xFFFF497DF652EF1B, (1 << 64) - 1]

ALL_ONES = (1 << 64) - 1
SEED = (0x0123456789ABCDEF, 0xFEDCBA9876543210)
OTHER_SEED = (7, 11)


def each_count() -> list:
    """Each way of counting an interval's pairs that this build has: the
    NumPy sort always, the compiled table where it can be built."""
    if library() is None:
        return [SortedPairCounts]
    return [SortedPairCounts, HashedPairCounts]


def events_from(pcs_pool, values_pool, max_events=60):
    return st.lists(st.tuples(st.sampled_from(pcs_pool),
                              st.sampled_from(values_pool)),
                    min_size=1, max_size=max_events)


def split(events, cuts) -> List[Piece]:
    """*events* as consecutive non-empty pieces, cut at *cuts*."""
    bounds = sorted({0, len(events), *(c % len(events) for c in cuts)})
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            chunk = events[lo:hi]
            pieces.append((np.array([pc for pc, _ in chunk], dtype=np.uint64),
                           np.array([v for _, v in chunk], dtype=np.uint64)))
    return pieces


def assert_counts(count, pieces: List[Piece], events, threshold: int,
                  probes) -> None:
    """*count* over *pieces*, and the interval truth built on it,
    against a ``Counter`` of *events*."""
    expected = Counter(events)
    ordered = sorted(expected)  # pc-major, value-minor
    over = [pair for pair in ordered if expected[pair] >= threshold]
    absent = [probe for probe in probes if probe not in expected]

    counts = count(pieces)
    assert counts.distinct == len(expected)
    pcs, values, numbers = counts.at_least(threshold)
    assert list(zip(pcs.tolist(), values.tolist())) == over
    assert numbers.tolist() == [expected[pair] for pair in over]
    assert counts.lookup(ordered) == [expected[pair] for pair in ordered]
    assert counts.lookup(absent) == [0] * len(absent)

    truth = _IntervalTruth(counts, threshold)
    assert list(truth.candidates) == over
    assert truth.candidates == {pair: expected[pair] for pair in over}
    for pair in ordered[:20] + absent:
        assert truth.lookup(pair) == expected.get(pair, 0)
    profile = IntervalProfile(index=0, candidates={
        pair: 1 for pair in ordered[:3] + absent[:3]}, events_observed=0)
    true_counts = truth.counts_for(profile)
    for pair in profile.candidates:
        assert true_counts[pair] == expected.get(pair, 0)
    assert set(true_counts) == set(over) | set(profile.candidates)

    # The session's truth step, on whichever count this build uses.
    truth, distinct = _interval_truth(pieces, threshold)
    assert distinct == len(expected)
    assert list(truth.candidates.items()) == [
        (pair, expected[pair]) for pair in over]


CUTS = st.lists(st.integers(min_value=0, max_value=200), max_size=6)
THRESHOLD = st.integers(min_value=1, max_value=12)


@given(events=events_from(NARROW_PCS, NARROW_VALUES), cuts=CUTS,
       threshold=THRESHOLD,
       probes=st.lists(st.tuples(st.sampled_from(NARROW_PCS + [2]),
                                 st.sampled_from(NARROW_VALUES + [1])),
                       max_size=8))
@settings(max_examples=150, deadline=None)
def test_narrow_fields_match_counter(events, cuts, threshold, probes):
    for count in each_count():
        assert_counts(count, split(events, cuts), events, threshold, probes)


@given(events=events_from(WIDE_PCS, WIDE_VALUES), cuts=CUTS,
       threshold=THRESHOLD,
       probes=st.lists(st.tuples(st.sampled_from(WIDE_PCS + [3]),
                                 st.sampled_from(WIDE_VALUES + [1 << 40])),
                       max_size=8))
@settings(max_examples=150, deadline=None)
def test_wide_fields_match_counter(events, cuts, threshold, probes):
    for count in each_count():
        assert_counts(count, split(events, cuts), events, threshold, probes)


@given(events=st.sampled_from([(NARROW_PCS, NARROW_VALUES),
                               (WIDE_PCS, WIDE_VALUES)]).flatmap(
           lambda pools: events_from(*pools, max_events=20)),
       threshold=THRESHOLD)
@settings(max_examples=60, deadline=None)
def test_one_event_pieces(events, threshold):
    pieces = split(events, range(len(events)))
    assert all(len(pcs) == 1 for pcs, _ in pieces)
    for count in each_count():
        assert_counts(count, pieces, events, threshold,
                      [(2, 1), (3, 1 << 40)])


def test_interval_of_one_repeated_tuple():
    for count in each_count():
        for pair in ((7, 3), (1 << 63, ALL_ONES)):
            events = [pair] * 1000
            pieces = split(events, [1, 250, 999])
            assert_counts(count, pieces, events, threshold=1000,
                          probes=[(7, 4), (pair[0], 0), (0, pair[1])])
            truth = _IntervalTruth(count(pieces), 1001)
            assert truth.candidates == {}


def test_zero_and_all_ones_keys():
    """The pairs at both ends of the key space count like any other."""
    keys = [(0, 0), (0, ALL_ONES), (ALL_ONES, 0), (ALL_ONES, ALL_ONES),
            (0, 1), (1, 0)]
    events = [key for position, key in enumerate(keys)
              for _ in range(position + 1)]
    events = events[::2] + events[1::2]
    for count in each_count():
        assert_counts(count, split(events, [5, 9]), events, threshold=3,
                      probes=[(1, 1), (ALL_ONES, 1), (1, ALL_ONES)])


def test_many_distinct_pairs():
    """More distinct pairs than 2**16, some repeated."""
    rng = np.random.default_rng(5)
    distinct = 70_000
    pcs = rng.integers(0, 1 << 63, distinct, dtype=np.uint64) << np.uint64(1)
    values = rng.integers(0, 1 << 20, distinct, dtype=np.uint64)
    picks = np.concatenate([np.arange(distinct),
                            rng.integers(0, 2_000, 30_000)])
    rng.shuffle(picks)
    pcs, values = pcs[picks], values[picks]
    events = list(zip(pcs.tolist(), values.tolist()))
    pieces = [(pcs[lo:lo + 30_000], values[lo:lo + 30_000])
              for lo in range(0, len(pcs), 30_000)]
    for count in each_count():
        assert_counts(count, pieces, events, threshold=12,
                      probes=[(1, 1), (3, 0)])


def test_non_contiguous_pieces():
    """Strided and reversed views are counted like copies."""
    rng = np.random.default_rng(8)
    pairs = rng.integers(0, 40, (3_000, 2)).astype(np.uint64) * np.uint64(
        0x100000001)
    pieces = [(pairs[:1_000, 0], pairs[:1_000, 1]),
              (pairs[1_000:2_000:2, 0], pairs[1_000:2_000:2, 1]),
              (pairs[2_000:, 0][::-1], pairs[2_000:, 1][::-1])]
    assert not any(pcs.flags.c_contiguous for pcs, _ in pieces)
    events = [event for pcs, values in pieces
              for event in zip(pcs.tolist(), values.tolist())]
    for count in each_count():
        assert_counts(count, pieces, events, threshold=3, probes=[(1, 1)])


def test_empty_input():
    empty = np.empty(0, dtype=np.uint64)
    for count in each_count():
        for pieces in ([], [(empty, empty)]):
            counts = count(pieces)
            assert counts.distinct == 0
            assert ([part.tolist() for part in counts.at_least(1)]
                    == [[], [], []])
            assert counts.lookup([(0, 0), (1, 2)]) == [0, 0]
            assert counts.lookup([]) == []
            truth, distinct = _interval_truth(pieces, 1)
            assert distinct == 0 and truth.candidates == {}


# -- the seeded slot hash -----------------------------------------------

MASK = (1 << 64) - 1
MIX = (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53)


def mix64(x: int) -> int:
    """``mix64`` of ``_kernel.c``."""
    x ^= x >> 33
    x = x * MIX[0] & MASK
    x ^= x >> 33
    x = x * MIX[1] & MASK
    return x ^ x >> 33


def unmix64(x: int) -> int:
    """The inverse of :func:`mix64`."""
    x ^= x >> 33
    x = x * pow(MIX[1], -1, 1 << 64) & MASK
    x ^= x >> 33
    x = x * pow(MIX[0], -1, 1 << 64) & MASK
    return x ^ x >> 33


def slot_sharing_pairs(number: int, seed) -> List[Tuple[int, int]]:
    """*number* distinct pairs whose slot hash under *seed* ends in 32
    one-bits: all of them start in a table's last slot."""
    pairs = []
    for position in range(number):
        pc = 0x400000 + 4 * (position % 7)
        wanted = unmix64(position << 32 | 0xFFFFFFFF)
        pairs.append((pc, wanted ^ seed[1] ^ mix64(pc ^ seed[0])))
    return pairs


def occupied_runs(slots: np.ndarray) -> List[int]:
    """Lengths of the runs of occupied slots, the last run wrapping
    into the first."""
    runs, run = [], 0
    for occupied in np.concatenate([slots, slots]) >= 0:
        if occupied:
            run += 1
        elif run:
            runs.append(run)
            run = 0
    return runs or [run]


def test_pairs_sharing_one_slot_count_exactly(compiled_kernel):
    """Pairs crafted to share one slot under a known seed probe one
    chain that wraps past the table's end, and still count exactly."""
    number = 3_000
    crafted = slot_sharing_pairs(number, SEED)
    assert mix64(mix64(crafted[1][0] ^ SEED[0]) ^ crafted[1][1]
                 ^ SEED[1]) == 1 << 32 | 0xFFFFFFFF
    events = [pair for position, pair in enumerate(crafted)
              for _ in range(1 + position % 3)]
    np.random.default_rng(3).shuffle(events)
    pieces = split(events, [700, 2_500, 4_000])
    assert_counts(partial(HashedPairCounts, seed=SEED), pieces, events,
                  threshold=3, probes=[(0x400000, 0), (1, 1)])

    slots = HashedPairCounts(pieces, seed=SEED).slots
    # One chain from the last slot, wrapped round to the first ones.
    assert np.flatnonzero(slots >= 0).tolist() == [
        *range(number - 1), len(slots) - 1]
    # Under a seed the crafter did not know, the chain falls apart.
    scattered = HashedPairCounts(pieces, seed=OTHER_SEED).slots
    assert max(occupied_runs(scattered)) < number // 10


def test_seeds_give_identical_truth(compiled_kernel):
    """The seed places pairs in slots, and nothing else."""
    generator = benchmark_generator("gcc", seed=4)
    pieces = [generator.chunk(5_000) for _ in range(4)]
    first = HashedPairCounts(pieces, seed=SEED)
    second = HashedPairCounts(pieces, seed=OTHER_SEED)
    assert not np.array_equal(first.slots, second.slots)
    assert first.distinct == second.distinct
    for threshold in (1, 20, 200):
        assert ([part.tolist() for part in first.at_least(threshold)]
                == [part.tolist() for part in second.at_least(threshold)])
    probes = [(int(pc), int(value)) for pc, value in zip(*pieces[0])]
    probes += [(1, 2), (ALL_ONES, 0)]
    assert first.lookup(probes) == second.lookup(probes)
    assert (_IntervalTruth(first, 20).candidates
            == _IntervalTruth(SortedPairCounts(pieces), 20).candidates)


def test_figure_statistics_count_the_generated_interval():
    """``analysis._count_interval`` (Figures 4-6) over a real stream,
    against a ``Counter`` over the same generated chunks."""
    length = 150_000  # more than two 64K generation chunks
    generator = benchmark_generator("gcc", seed=3)
    counts = _count_interval(generator, length)
    twin = benchmark_generator("gcc", seed=3)
    expected = Counter()
    for take in (1 << 16, 1 << 16, length - (2 << 16)):
        pcs, values = twin.chunk(take)
        expected.update(zip(pcs.tolist(), values.tolist()))
    ordered = sorted(expected)
    assert counts.distinct == len(expected)
    for threshold in (1, 150):
        pcs, values, numbers = counts.at_least(threshold)
        over = [pair for pair in ordered if expected[pair] >= threshold]
        assert list(zip(pcs.tolist(), values.tolist())) == over
        assert numbers.tolist() == [expected[pair] for pair in over]
    assert counts.lookup(ordered) == [expected[pair] for pair in ordered]
