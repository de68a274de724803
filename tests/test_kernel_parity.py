"""Differential parity: the compiled loop equals the scalar reference.

The vectorized backend (:mod:`repro.core.kernels`) exists purely for
speed; its contract is **bit-identical** behaviour.  These properties
drive randomized streams through the scalar per-event reference and
the compiled loop under hypothesis-generated configurations -- table
sizes, thresholds, P1/R1/C1 on/off, shielding, 1-4 hash tables, tiny
accumulators (forcing evictions and rejections), counters of 1-4 bits
that saturate, and fields that use all 64 bits -- and assert equal
per-interval candidates in the same order, counts, cumulative stats,
and :class:`~repro.metrics.error.ErrorSummary` values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.config import IntervalSpec, ProfilerConfig
from repro.core.kernels import (VectorizedMultiHashProfiler,
                                VectorizedSingleHashProfiler)
from repro.core.multi_hash import MultiHashProfiler, build_profiler
from repro.core.single_hash import SingleHashProfiler
from repro.profiling.session import ProfilingSession
from repro.workloads.benchmarks import benchmark_generator
from test_ground_truth import (OTHER_SEED, SEED, occupied_runs,
                               slot_sharing_pairs)

SPEC = IntervalSpec(length=200, threshold=0.05)  # threshold_count 10

#: Operating points: threshold 10, and threshold 2, which 2- to 4-bit
#: counters can reach and then saturate past.
SPECS = st.sampled_from([SPEC, IntervalSpec(length=200, threshold=0.01)])

def bursts(runs):
    """Expand ``(pc, value, repeat)`` runs into at most 600 events."""
    return [(pc, value) for pc, value, repeat in runs
            for _ in range(repeat)][:600]


# Small tuple universe so aliasing, promotion and accumulator pressure
# are all frequent against 16..64-entry tables.  Bursts of one tuple
# promote it early in an interval, before the retained entries have
# been hit, so a full accumulator picks its victim among equal counts
# by the oldest stamp.
EVENTS = st.one_of(
    st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                       st.integers(min_value=0, max_value=3)),
             min_size=1, max_size=600),
    st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                       st.integers(min_value=0, max_value=1),
                       st.integers(min_value=1, max_value=30)),
             min_size=1, max_size=60).map(bursts))

FLAGS = st.tuples(st.booleans(), st.booleans(), st.booleans())

ACCUMULATORS = st.sampled_from([None, 1, 2, 4])

#: Saturating narrow counters next to the paper's 24 bits.
COUNTER_BITS = st.sampled_from([1, 2, 3, 4, 24])


def spread(events, wide):
    """*events* with both fields mapped one-to-one onto 64-bit values,
    so every byte of both fields, and so every row of the fold tables,
    is read, when *wide*."""
    if not wide:
        return events
    mask = (1 << 64) - 1
    return [((pc * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) & mask,
             (value * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB) & mask)
            for pc, value in events]


def scalar_class(config):
    single = config.num_tables == 1 and not config.conservative_update
    return SingleHashProfiler if single else MultiHashProfiler


def vectorized_class(config):
    single = config.num_tables == 1 and not config.conservative_update
    return (VectorizedSingleHashProfiler if single
            else VectorizedMultiHashProfiler)


def run_scalar(config, events):
    """Per-event reference run, closing intervals at interval bounds."""
    length = config.interval.length
    profiler = scalar_class(config)(config)
    profiles = []
    for position, event in enumerate(events, start=1):
        profiler.observe(event)
        if position % length == 0:
            profiles.append(profiler.end_interval())
    return profiler, profiles


def run_vectorized(config, events, chunk_size):
    """Compiled-loop run over the same events, arbitrary chunk sizes.

    Chunks are split at interval boundaries exactly as SessionFeeder
    does (the documented precondition of ``observe_array_chunk``).
    """
    length = config.interval.length
    profiler = vectorized_class(config)(config)
    pcs = np.array([event[0] for event in events], dtype=np.uint64)
    values = np.array([event[1] for event in events], dtype=np.uint64)
    profiles = []
    position = 0
    while position < len(events):
        take = min(chunk_size, length - (position % length),
                   len(events) - position)
        profiler.observe_array_chunk(pcs[position:position + take],
                                     values[position:position + take])
        position += take
        if position % length == 0:
            profiles.append(profiler.end_interval())
    return profiler, profiles


def assert_identical(config, events, chunk_size):
    scalar, scalar_profiles = run_scalar(config, events)
    vector, vector_profiles = run_vectorized(config, events, chunk_size)
    # Candidate order is part of the contract: snapshots sort stably
    # by count, and the error sums follow the same order.
    assert [list(p.candidates.items()) for p in scalar_profiles] == \
           [list(p.candidates.items()) for p in vector_profiles]
    assert scalar.stats.as_dict() == vector.stats.as_dict()
    assert scalar.accumulator.rejected_inserts == \
           vector.accumulator.rejected_inserts
    assert scalar.accumulator.evictions == vector.accumulator.evictions
    # Residual state matters too: the next interval starts from it.
    assert [(event, entry.count, entry.replaceable)
            for event, entry in scalar.accumulator.raw_entries().items()] \
        == [(event, entry.count, entry.replaceable)
            for event, entry in vector.accumulator.raw_entries().items()]


@given(EVENTS, FLAGS, ACCUMULATORS, st.integers(min_value=1, max_value=77),
       SPECS, COUNTER_BITS, st.booleans())
@settings(max_examples=80, deadline=None)
def test_single_hash_kernel_parity(compiled_kernel, events, flags,
                                   accumulator, chunk_size, spec,
                                   counter_bits, wide):
    retaining, resetting, shielding = flags
    config = ProfilerConfig(interval=spec, total_entries=16, num_tables=1,
                            retaining=retaining, resetting=resetting,
                            shielding=shielding, counter_bits=counter_bits,
                            accumulator_entries=accumulator)
    assert_identical(config, spread(events, wide), chunk_size)


@given(EVENTS, FLAGS, st.booleans(), st.sampled_from([2, 4]),
       ACCUMULATORS, st.integers(min_value=1, max_value=77), SPECS,
       COUNTER_BITS, st.booleans())
@settings(max_examples=80, deadline=None)
def test_multi_hash_kernel_parity(compiled_kernel, events, flags,
                                  conservative, num_tables, accumulator,
                                  chunk_size, spec, counter_bits, wide):
    retaining, resetting, shielding = flags
    config = ProfilerConfig(interval=spec, total_entries=16,
                            num_tables=num_tables, retaining=retaining,
                            resetting=resetting, shielding=shielding,
                            conservative_update=conservative,
                            counter_bits=counter_bits,
                            accumulator_entries=accumulator)
    assert_identical(config, spread(events, wide), chunk_size)


@given(EVENTS, st.integers(min_value=1, max_value=77),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=25, deadline=None)
def test_parity_with_interleaved_observe(compiled_kernel, events,
                                         chunk_size, prefix):
    """Per-event observe() calls interleaved with array chunks stay
    exact: both go through the same compiled call."""
    config = ProfilerConfig(interval=SPEC, total_entries=16, num_tables=4,
                            conservative_update=True,
                            accumulator_entries=4)
    scalar = MultiHashProfiler(config)
    vector = VectorizedMultiHashProfiler(config)
    for event in events[:prefix]:
        scalar.observe(event)
        vector.observe(event)
    rest = events[prefix:]
    for event in rest:
        scalar.observe(event)
    position = 0
    pcs = np.array([event[0] for event in rest], dtype=np.uint64)
    values = np.array([event[1] for event in rest], dtype=np.uint64)
    while position < len(rest):
        take = min(chunk_size, len(rest) - position)
        vector.observe_array_chunk(pcs[position:position + take],
                                   values[position:position + take])
        position += take
    assert scalar.stats.as_dict() == vector.stats.as_dict()
    assert list(scalar.end_interval().candidates.items()) == \
           list(vector.end_interval().candidates.items())


@pytest.mark.parametrize("num_tables,conservative", [(1, False),
                                                     (4, True)])
def test_eviction_takes_the_oldest_of_equal_counts(compiled_kernel,
                                                   num_tables,
                                                   conservative):
    """Two retained entries still at count 0 when a new tuple promotes:
    the victim is the older one, which then has to promote again."""
    config = ProfilerConfig(interval=SPEC, total_entries=16,
                            num_tables=num_tables,
                            conservative_update=conservative,
                            accumulator_entries=2)
    first = [(1, 0)] * 15 + [(2, 0)] * 15
    first += [(100 + i, 0) for i in range(SPEC.length - len(first))]
    second = [(3, 0)] * 12 + [(1, 0)] * 15 + [(2, 0)] * 15
    scalar, _ = run_scalar(config, first + second)
    assert scalar.accumulator.evictions == 2
    assert_identical(config, first + second, 7)


@pytest.mark.parametrize("num_tables,conservative", [(1, False),
                                                     (4, True)])
def test_session_error_summaries_match(compiled_kernel, num_tables,
                                       conservative):
    """End-to-end: one session, both backends, a realistic benchmark
    stream -- identical candidates and bit-identical error summaries."""
    spec = IntervalSpec(length=2_000, threshold=0.01)
    base = ProfilerConfig(interval=spec, total_entries=256,
                          num_tables=num_tables,
                          conservative_update=conservative)
    session = ProfilingSession([base.with_backend("scalar"),
                                base.with_backend("vectorized")],
                               keep_profiles=True)
    result = session.run(benchmark_generator("gcc", seed=11),
                         max_intervals=4)
    scalar_result, vector_result = result.results.values()
    assert [list(p.candidates.items()) for p in scalar_result.profiles] == \
           [list(p.candidates.items()) for p in vector_result.profiles]
    assert scalar_result.summary.series() == vector_result.summary.series()
    assert scalar_result.summary.breakdown_percent() == \
           vector_result.summary.breakdown_percent()
    assert scalar_result.profiler.stats.as_dict() == \
           vector_result.profiler.stats.as_dict()


#: Events with one byte set, to 0x01, 0x80 or 0xFF, at every byte
#: position of the pc and of the value.
ONE_BYTE_EVENTS = [event for position in range(8)
                   for byte in (0x01, 0x80, 0xFF)
                   for event in ((byte << 8 * position, 0),
                                 (0, byte << 8 * position))]


def test_each_fold_row_hashes_as_the_spec(compiled_kernel):
    """One event with one byte set reads one row of the fold tables
    apart from entry 0 of the others: the only counter the compiled
    loop bumps is the one at ``TupleHashFunction.__call__``'s index,
    for a single-hash profiler and for every table of a multi-hash
    one."""
    spec = IntervalSpec(length=1_000, threshold=0.01)
    single = ProfilerConfig(interval=spec, total_entries=1 << 12,
                            num_tables=1)
    multi = ProfilerConfig(interval=spec, total_entries=1 << 12,
                           num_tables=4, conservative_update=True)
    for event in ONE_BYTE_EVENTS:
        sh = VectorizedSingleHashProfiler(single)
        mh = VectorizedMultiHashProfiler(multi)
        sh.observe(event)
        mh.observe(event)
        pairs = ([(sh.hash_function, sh.table)]
                 + list(zip(mh.hash_functions, mh.tables)))
        for function, table in pairs:
            assert np.flatnonzero(table.array).tolist() == \
                [function(event)], (hex(event[0]), hex(event[1]))
            assert table.array[function(event)] == 1


@pytest.mark.parametrize("num_tables,conservative", [(1, False),
                                                     (4, True)])
def test_accumulator_chain_crafted_for_a_known_seed(compiled_kernel,
                                                    monkeypatch,
                                                    num_tables,
                                                    conservative):
    """Pairs crafted to share one accumulator probe chain under a known
    seed -- all start in the index's last slot -- give the scalar
    profile over two intervals (the second one rebuilds the index
    around the retained entries), and scatter under another seed."""
    number = 150
    spec = IntervalSpec(length=1_000, threshold=0.002)  # threshold 2
    config = ProfilerConfig(interval=spec, total_entries=1 << 16,
                            num_tables=num_tables,
                            conservative_update=conservative)
    crafted = slot_sharing_pairs(number, SEED)
    rng = np.random.default_rng(5)
    events = []
    for _ in range(2):
        interval = crafted * 3 + [(0x9000 + i, i) for i in range(
            spec.length - 3 * number)]
        rng.shuffle(interval)
        events += interval
    scalar, scalar_profiles = run_scalar(config, events)
    pcs = np.array([pc for pc, _ in events], dtype=np.uint64)
    values = np.array([value for _, value in events], dtype=np.uint64)
    runs = {}
    for seed in (SEED, OTHER_SEED):
        # A profiler takes the process's seed when it is built.
        monkeypatch.setattr(kernels, "_PAIR_SEED", seed)
        vector = vectorized_class(config)(config)
        vector.observe_array_chunk(pcs[:spec.length], values[:spec.length])
        runs[seed] = max(occupied_runs(vector.accumulator.slots))
        profiles = [vector.end_interval()]
        vector.observe_array_chunk(pcs[spec.length:], values[spec.length:])
        profiles.append(vector.end_interval())
        assert [list(p.candidates.items()) for p in profiles] == \
            [list(p.candidates.items()) for p in scalar_profiles]
        assert vector.stats.as_dict() == scalar.stats.as_dict()
    assert runs[SEED] >= number
    assert runs[OTHER_SEED] < number // 10


def test_build_profiler_backend_dispatch(compiled_kernel, monkeypatch):
    config = ProfilerConfig(interval=SPEC, total_entries=16)
    assert isinstance(build_profiler(config.with_backend("scalar")),
                      SingleHashProfiler)
    vectorized = build_profiler(config.with_backend("vectorized"))
    assert isinstance(vectorized, VectorizedSingleHashProfiler)
    assert vectorized.backend == "vectorized"
    multi = ProfilerConfig(interval=SPEC, total_entries=16, num_tables=4,
                           conservative_update=True)
    assert isinstance(build_profiler(multi.with_backend("vectorized")),
                      VectorizedMultiHashProfiler)
    scalar = build_profiler(multi.with_backend("scalar"))
    assert type(scalar) is MultiHashProfiler
    assert scalar.backend == "scalar"

    # "auto" follows REPRO_BACKEND and defaults to the compiled loop.
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert isinstance(build_profiler(config), VectorizedSingleHashProfiler)
    monkeypatch.setenv("REPRO_BACKEND", "scalar")
    assert type(build_profiler(config)) is SingleHashProfiler
    monkeypatch.setenv("REPRO_BACKEND", "bogus")
    with pytest.raises(ValueError):
        build_profiler(config)


def test_unbuildable_kernel_falls_back_only_under_auto(monkeypatch):
    """Without the compiled loop ``auto`` builds scalar, while an
    explicit ``vectorized`` -- from the config or REPRO_BACKEND --
    raises rather than quietly testing scalar against scalar."""
    monkeypatch.setattr(kernels, "_LOADED", (None, "no compiler"))
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    config = ProfilerConfig(interval=SPEC, total_entries=16)
    profiler = build_profiler(config)
    assert type(profiler) is SingleHashProfiler
    assert profiler.backend == "scalar"
    with pytest.raises(ValueError, match="no compiler"):
        build_profiler(config.with_backend("vectorized"))
    monkeypatch.setenv("REPRO_BACKEND", "vectorized")
    with pytest.raises(ValueError, match="no compiler"):
        build_profiler(config)


def test_wide_counters_fall_back_to_scalar():
    config = ProfilerConfig(interval=SPEC, total_entries=16,
                            counter_bits=63, backend="vectorized")
    assert type(build_profiler(config)) is SingleHashProfiler
    with pytest.raises(ValueError):
        VectorizedSingleHashProfiler(config)


def test_backend_round_trips_through_dict():
    config = ProfilerConfig(interval=SPEC, total_entries=16,
                            backend="vectorized")
    assert ProfilerConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ValueError):
        ProfilerConfig(interval=SPEC, total_entries=16, backend="fast")
    with pytest.raises(ValueError):
        ProfilerConfig(interval=SPEC, total_entries=16, backend="batched")
