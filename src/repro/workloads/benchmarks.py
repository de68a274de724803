"""The paper's eight benchmark workloads as calibrated stream models.

The evaluation uses five SPEC programs (go, li, m88ksim from SPEC95;
gcc, vortex from SPEC2000) and three C++ programs (deltablue, sis,
burg), traced for 500 M instructions.  Each is modelled here by a
:class:`~repro.workloads.solver.BenchmarkTargets` record whose numbers
are read off the paper's own characterization:

* ``distinct_10k`` from Figure 4 (distinct tuples in a 10 K interval;
  gcc and go largest, li and m88ksim smallest);
* ``candidates_1pct`` / ``candidates_01pct`` from Figure 5;
* temporal character from Figure 6 -- deltablue has long coarse phases
  (high candidate variation at 1 M intervals, low at 10 K), while
  m88ksim and vortex are bursty with long stable phases (variation at
  10 K, stability at 1 M);
* Section 6.3 notes gcc and go have "the largest number of unique
  tuples", which is why they stress the hash tables hardest.

Edge-profiling models (Figure 14) see far fewer distinct tuples --
branch edges are a static population -- so their targets shrink the
distinct count and nearly eliminate fresh tuples.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, Optional

from ..core.config import IntervalSpec
from ..core.tuples import EventKind, ProfileTuple
from .generators import StreamModel, TupleStreamGenerator
from .solver import BenchmarkTargets, build_model

#: Benchmark order used by every figure.
BENCHMARK_NAMES = ("burg", "deltablue", "gcc", "go", "li", "m88ksim",
                   "sis", "vortex")

#: Value-profiling targets (Figures 4-6 characterization).
VALUE_TARGETS: Dict[str, BenchmarkTargets] = {
    "burg": BenchmarkTargets(
        name="burg", distinct_10k=2000,
        candidates_1pct=14, candidates_01pct=70,
        strong_top_share=0.030, recurring_fraction=0.40,
        num_phases=4, phase_length=600_000, phase_overlap=0.50,
        burstiness=0.30, mid_fraction=0.6, seed=101),
    "deltablue": BenchmarkTargets(
        name="deltablue", distinct_10k=2500,
        candidates_1pct=12, candidates_01pct=80,
        strong_top_share=0.034, recurring_fraction=0.35,
        # Large-scale phase behaviour: high candidate variation at 1 M
        # intervals, little at 10 K (Figure 6 discussion).
        num_phases=6, phase_length=1_500_000, phase_overlap=0.15,
        burstiness=0.20, seed=102),
    "gcc": BenchmarkTargets(
        name="gcc", distinct_10k=4300,
        candidates_1pct=20, candidates_01pct=150,
        strong_top_share=0.016, recurring_fraction=0.12,
        num_phases=8, phase_length=1_500_000, phase_overlap=0.75,
        burstiness=0.20, seed=103),
    "go": BenchmarkTargets(
        name="go", distinct_10k=4200,
        candidates_1pct=22, candidates_01pct=150,
        strong_top_share=0.015, recurring_fraction=0.10,
        num_phases=8, phase_length=1_800_000, phase_overlap=0.70,
        burstiness=0.20, seed=104),
    "li": BenchmarkTargets(
        name="li", distinct_10k=1000,
        candidates_1pct=10, candidates_01pct=45,
        strong_top_share=0.11, recurring_fraction=0.8,
        num_phases=3, phase_length=1_200_000, phase_overlap=0.60,
        burstiness=0.30, mid_fraction=1.0, seed=105),
    "m88ksim": BenchmarkTargets(
        name="m88ksim", distinct_10k=1400,
        candidates_1pct=12, candidates_01pct=55,
        strong_top_share=0.045, recurring_fraction=0.7,
        # Bursty with very long stable phases: candidates fluctuate at
        # 10 K but are stable at 1 M (Figure 6 discussion).
        num_phases=2, phase_length=6_000_000, phase_overlap=0.70,
        burstiness=0.85, mid_fraction=0.8, seed=106),
    "sis": BenchmarkTargets(
        name="sis", distinct_10k=3000,
        candidates_1pct=15, candidates_01pct=90,
        strong_top_share=0.026, recurring_fraction=0.30,
        num_phases=5, phase_length=900_000, phase_overlap=0.45,
        burstiness=0.30, seed=107),
    "vortex": BenchmarkTargets(
        name="vortex", distinct_10k=2200,
        candidates_1pct=14, candidates_01pct=75,
        strong_top_share=0.030, recurring_fraction=0.40,
        num_phases=3, phase_length=5_000_000, phase_overlap=0.60,
        burstiness=0.80, mid_fraction=0.4, seed=108),
}

#: Edge-profiling targets: "the edge profiler will see fewer distinct
#: tuples than value profiling" (Section 6.4.2).  Branch edges are a
#: static population, so fresh tuples all but vanish.
EDGE_TARGETS: Dict[str, BenchmarkTargets] = {
    "burg": BenchmarkTargets(
        name="burg", distinct_10k=600,
        candidates_1pct=12, candidates_01pct=55,
        strong_top_share=0.12, recurring_fraction=0.92,
        num_phases=4, phase_length=600_000, phase_overlap=0.50,
        burstiness=0.30, mid_fraction=0.8, seed=201),
    "deltablue": BenchmarkTargets(
        name="deltablue", distinct_10k=500,
        candidates_1pct=10, candidates_01pct=60,
        strong_top_share=0.15, recurring_fraction=0.92,
        num_phases=6, phase_length=1_500_000, phase_overlap=0.15,
        burstiness=0.20, mid_fraction=1.0, seed=202),
    "gcc": BenchmarkTargets(
        name="gcc", distinct_10k=1800,
        candidates_1pct=18, candidates_01pct=120,
        strong_top_share=0.020, recurring_fraction=0.85,
        num_phases=8, phase_length=1_500_000, phase_overlap=0.55,
        burstiness=0.20, seed=203),
    "go": BenchmarkTargets(
        name="go", distinct_10k=2000,
        candidates_1pct=20, candidates_01pct=125,
        strong_top_share=0.018, recurring_fraction=0.85,
        num_phases=8, phase_length=1_800_000, phase_overlap=0.45,
        burstiness=0.20, seed=204),
    "li": BenchmarkTargets(
        name="li", distinct_10k=260,
        candidates_1pct=8, candidates_01pct=35,
        strong_top_share=0.3, recurring_fraction=0.92,
        num_phases=3, phase_length=1_200_000, phase_overlap=0.60,
        burstiness=0.30, mid_fraction=0.8, seed=205),
    "m88ksim": BenchmarkTargets(
        name="m88ksim", distinct_10k=350,
        candidates_1pct=10, candidates_01pct=40,
        strong_top_share=0.2, recurring_fraction=0.92,
        num_phases=2, phase_length=6_000_000, phase_overlap=0.70,
        burstiness=0.85, mid_fraction=1.0, seed=206),
    "sis": BenchmarkTargets(
        name="sis", distinct_10k=900,
        candidates_1pct=13, candidates_01pct=70,
        strong_top_share=0.04, recurring_fraction=0.95,
        num_phases=5, phase_length=900_000, phase_overlap=0.45,
        burstiness=0.30, mid_fraction=1.0, seed=207),
    "vortex": BenchmarkTargets(
        name="vortex", distinct_10k=700,
        candidates_1pct=12, candidates_01pct=60,
        strong_top_share=0.08, recurring_fraction=0.95,
        num_phases=3, phase_length=5_000_000, phase_overlap=0.60,
        burstiness=0.80, mid_fraction=1.0, seed=208),
}

_TARGETS_BY_KIND = {
    EventKind.VALUE: VALUE_TARGETS,
    EventKind.EDGE: EDGE_TARGETS,
}


def benchmark_targets(name: str,
                      kind: EventKind = EventKind.VALUE
                      ) -> BenchmarkTargets:
    """Targets for one benchmark, failing with the known names listed."""
    try:
        targets = _TARGETS_BY_KIND[kind]
    except KeyError:
        raise ValueError(f"no benchmark models for event kind {kind!r}; "
                         f"available: value, edge") from None
    try:
        return targets[name]
    except KeyError:
        raise ValueError(f"unknown benchmark {name!r}; available: "
                         f"{', '.join(BENCHMARK_NAMES)}") from None


@lru_cache(maxsize=None)
def _solved_model(name: str, kind: EventKind) -> StreamModel:
    return build_model(benchmark_targets(name, kind), kind=kind)


def benchmark_model(name: str,
                    kind: EventKind = EventKind.VALUE) -> StreamModel:
    """The calibrated stream model for one benchmark, solved once per
    process and ``(name, kind)``: it is immutable, so callers share it."""
    return _solved_model(name, kind)


def clear_model_memo() -> None:
    """Forget every solved model: the next call of each solves again."""
    _solved_model.cache_clear()


def benchmark_generator(name: str, kind: EventKind = EventKind.VALUE,
                        seed: Optional[int] = None) -> TupleStreamGenerator:
    """A fresh, rewound generator for one benchmark's stream."""
    return TupleStreamGenerator(benchmark_model(name, kind), seed=seed)


def benchmark_stream(name: str, interval: IntervalSpec,
                     num_intervals: int,
                     kind: EventKind = EventKind.VALUE,
                     seed: Optional[int] = None) -> Iterator[ProfileTuple]:
    """Event stream of exactly *num_intervals* whole intervals."""
    generator = benchmark_generator(name, kind, seed)
    return generator.intervals(interval.length, num_intervals)


def all_models(kind: EventKind = EventKind.VALUE) -> List[StreamModel]:
    """Models for every benchmark, in the figures' order."""
    return [benchmark_model(name, kind) for name in BENCHMARK_NAMES]
