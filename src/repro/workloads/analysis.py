"""Perfect-profile stream statistics (Figures 4-6).

These analyses characterize workloads independently of any hardware
profiler, using exact per-interval counting:

* distinct tuples per interval (Figure 4),
* candidate tuples over a threshold per interval (Figure 5),
* percentage change of the candidate set between consecutive intervals
  (Figure 6).

Counting is exact and compiled (the pair table of
:func:`~repro.core.kernels.count_pairs`, or one NumPy sort without a
compiler), so the 1 M-event intervals of the paper are practical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

import numpy as np

from ..core.kernels import PairCounts, count_pairs
from ..core.tuples import ProfileTuple
from .generators import TupleStreamGenerator

#: Chunk size for interval assembly.
_CHUNK = 1 << 16


@dataclass
class IntervalStatistics:
    """Per-interval stream statistics for one configuration.

    ``candidate_sets`` maps each analyzed threshold to the per-interval
    sets of candidate tuples (kept for variation analysis);
    ``candidate_counts`` are their sizes.
    """

    interval_length: int
    distinct: List[int]
    candidate_counts: Dict[float, List[int]]
    candidate_sets: Dict[float, List[Set[ProfileTuple]]]

    @property
    def num_intervals(self) -> int:
        return len(self.distinct)

    def mean_distinct(self) -> float:
        """Average distinct tuples per interval (a Figure 4 bar)."""
        if not self.distinct:
            return 0.0
        return sum(self.distinct) / len(self.distinct)

    def mean_candidates(self, threshold: float) -> float:
        """Average candidate count per interval (a Figure 5 bar)."""
        counts = self.candidate_counts[threshold]
        if not counts:
            return 0.0
        return sum(counts) / len(counts)


def interval_statistics(generator: TupleStreamGenerator,
                        interval_length: int,
                        num_intervals: int,
                        thresholds: Sequence[float] = (0.01, 0.001)
                        ) -> IntervalStatistics:
    """Measure *num_intervals* intervals of *generator*'s stream."""
    if interval_length <= 0:
        raise ValueError(f"interval_length must be positive, got "
                         f"{interval_length}")
    if num_intervals <= 0:
        raise ValueError(f"num_intervals must be positive, got "
                         f"{num_intervals}")
    distinct: List[int] = []
    candidate_counts: Dict[float, List[int]] = {t: [] for t in thresholds}
    candidate_sets: Dict[float, List[Set[ProfileTuple]]] = {
        t: [] for t in thresholds}
    for _ in range(num_intervals):
        counts = _count_interval(generator, interval_length)
        distinct.append(counts.distinct)
        for threshold in thresholds:
            needed = max(1, int(np.ceil(threshold * interval_length)))
            pcs, values, _ = counts.at_least(needed)
            candidates = set(zip(pcs.tolist(), values.tolist()))
            candidate_counts[threshold].append(len(candidates))
            candidate_sets[threshold].append(candidates)
    return IntervalStatistics(interval_length=interval_length,
                              distinct=distinct,
                              candidate_counts=candidate_counts,
                              candidate_sets=candidate_sets)


def _count_interval(generator: TupleStreamGenerator,
                    interval_length: int) -> PairCounts:
    """Exact pair counts of the next *interval_length* events."""
    pieces = []
    cursor = 0
    while cursor < interval_length:
        take = min(_CHUNK, interval_length - cursor)
        pieces.append(generator.chunk(take))
        cursor += take
    return count_pairs(pieces)


def candidate_variation(candidate_sets: Sequence[Set[ProfileTuple]]
                        ) -> List[float]:
    """Percent change of the candidate set between consecutive intervals.

    The change between intervals ``i-1`` and ``i`` is the symmetric
    difference relative to the union, in percent (0 = identical sets,
    100 = disjoint sets) -- the quantity whose distribution Figure 6
    plots.  An empty pair of sets counts as 0 % change.
    """
    variations: List[float] = []
    for previous, current in zip(candidate_sets, candidate_sets[1:]):
        union = previous | current
        if not union:
            variations.append(0.0)
            continue
        changed = len(previous ^ current)
        variations.append(100.0 * changed / len(union))
    return variations


def variation_profile(variations: Sequence[float],
                      fractions: Sequence[float] = (0.10, 0.25, 0.50,
                                                    0.75, 0.90)
                      ) -> Dict[float, float]:
    """Summarize a variation series as CDF quantiles.

    Returns ``{fraction: variation}`` -- e.g. ``{0.5: 35.0}`` means
    "50 % of interval transitions change less than 35 % of candidates",
    directly comparable to reading a Figure 6 curve at x = 50.
    """
    if not variations:
        return {fraction: 0.0 for fraction in fractions}
    ordered = sorted(variations)
    profile: Dict[float, float] = {}
    for fraction in fractions:
        position = min(len(ordered) - 1,
                       max(0, int(fraction * len(ordered))))
        profile[fraction] = ordered[position]
    return profile
