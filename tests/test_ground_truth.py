"""Exact interval ground truth, checked against ``collections.Counter``.

The perfect profiler every hardware profile is scored against
(:func:`repro.profiling.session._interval_truth`, built on
:func:`repro.core.kernels.count_pairs`) is checked here against a plain
``Counter`` over the same pieces, so a bug in the truth step cannot
hide behind a reference that shares it.  Inputs cover both narrow
fields (below 2**32) and full 64-bit fields.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import IntervalProfile
from repro.core.kernels import PAIR_DTYPE, count_pairs
from repro.profiling.session import _interval_truth
from repro.workloads.analysis import _count_interval
from repro.workloads.benchmarks import benchmark_generator

Piece = Tuple[np.ndarray, np.ndarray]

#: Small pools so that pairs repeat and counts exceed one.
NARROW_PCS = [0, 1, 7, 0x400000, 0xFFFFFFFF]
NARROW_VALUES = [0, 3, 0xFFFF, 0xFFFFFFFE]
WIDE_PCS = [0, 5, 0x6000000F8, 1 << 63, (1 << 64) - 1]
WIDE_VALUES = [0, 2, 1 << 32, 0xFFFF497DF652EF1B, (1 << 64) - 1]


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


def assert_counts(pieces: List[Piece], events, threshold: int,
                  probes) -> None:
    """``count_pairs`` and ``_interval_truth`` against a ``Counter``."""
    expected = Counter(events)
    ordered = sorted(expected)  # pc-major, value-minor

    unique, counts = count_pairs(pieces)
    assert unique.dtype == PAIR_DTYPE
    assert counts.dtype == np.int64
    assert list(zip(unique["p"].tolist(), unique["v"].tolist())) == ordered
    assert counts.tolist() == [expected[pair] for pair in ordered]

    truth, distinct = _interval_truth(pieces, threshold)
    assert distinct == len(expected)
    over = [pair for pair in ordered if expected[pair] >= threshold]
    assert list(truth.candidates) == over
    assert truth.candidates == {pair: expected[pair] for pair in over}
    for pair in ordered:
        assert truth.lookup(pair) == expected[pair]
    absent = [probe for probe in probes if probe not in expected]
    for pair in absent:
        assert truth.lookup(pair) == 0
    profile = IntervalProfile(index=0, candidates={
        pair: 1 for pair in ordered[:3] + absent[:3]}, events_observed=0)
    true_counts = truth.counts_for(profile)
    for pair in profile.candidates:
        assert true_counts[pair] == expected.get(pair, 0)
    assert set(true_counts) == set(over) | set(profile.candidates)


CUTS = st.lists(st.integers(min_value=0, max_value=200), max_size=6)
THRESHOLD = st.integers(min_value=1, max_value=12)


@given(events_from(NARROW_PCS, NARROW_VALUES), CUTS, THRESHOLD,
       st.lists(st.tuples(st.sampled_from(NARROW_PCS + [2]),
                          st.sampled_from(NARROW_VALUES + [1])),
                max_size=8))
@settings(max_examples=150, deadline=None)
def test_narrow_fields_match_counter(events, cuts, threshold, probes):
    assert_counts(split(events, cuts), events, threshold, probes)


@given(events_from(WIDE_PCS, WIDE_VALUES), CUTS, THRESHOLD,
       st.lists(st.tuples(st.sampled_from(WIDE_PCS + [3]),
                          st.sampled_from(WIDE_VALUES + [1 << 40])),
                max_size=8))
@settings(max_examples=150, deadline=None)
def test_wide_fields_match_counter(events, cuts, threshold, probes):
    assert_counts(split(events, cuts), events, threshold, probes)


@given(st.sampled_from([(NARROW_PCS, NARROW_VALUES),
                        (WIDE_PCS, WIDE_VALUES)]).flatmap(
           lambda pools: events_from(*pools, max_events=20)),
       THRESHOLD)
@settings(max_examples=60, deadline=None)
def test_one_event_pieces(events, threshold):
    pieces = split(events, range(len(events)))
    assert all(len(pcs) == 1 for pcs, _ in pieces)
    assert_counts(pieces, events, threshold, [(2, 1), (3, 1 << 40)])


def test_interval_of_one_repeated_tuple():
    for pair in ((7, 3), (1 << 63, (1 << 64) - 1)):
        events = [pair] * 1000
        pieces = split(events, [1, 250, 999])
        assert_counts(pieces, events, threshold=1000,
                      probes=[(7, 4), (pair[0], 0), (0, pair[1])])
        truth, distinct = _interval_truth(pieces, 1001)
        assert distinct == 1 and truth.candidates == {}


def test_empty_input():
    unique, counts = count_pairs([])
    assert unique.dtype == PAIR_DTYPE and len(unique) == 0
    assert counts.dtype == np.int64 and len(counts) == 0
    empty = np.empty(0, dtype=np.uint64)
    unique, counts = count_pairs([(empty, empty)])
    assert len(unique) == 0 and len(counts) == 0


def test_figure_statistics_count_the_generated_interval():
    """``analysis._count_interval`` (Figures 4-6) over a real stream,
    against a ``Counter`` over the same generated chunks."""
    length = 150_000  # more than two 64K generation chunks
    generator = benchmark_generator("gcc", seed=3)
    unique, counts = _count_interval(generator, length)
    twin = benchmark_generator("gcc", seed=3)
    expected = Counter()
    for take in (1 << 16, 1 << 16, length - (2 << 16)):
        pcs, values = twin.chunk(take)
        expected.update(zip(pcs.tolist(), values.tolist()))
    ordered = sorted(expected)
    assert list(zip(unique["p"].tolist(), unique["v"].tolist())) == ordered
    assert counts.tolist() == [expected[pair] for pair in ordered]
