"""Differential parity for multi-session batches.

Code holding pieces for many sessions at once -- the profile
service's shard worker, through :func:`feed_many` -- hands their
compiled-loop calls to one :class:`BatchedKernelRunner`; the contract
is **bit-identical** behaviour per tenant, whatever the interleaving.
These tests drive hypothesis-generated ragged batches (random tenant
counts, chunk lengths 0..N, empty tenants, interval boundaries landing
mid-tick) through the runner against per-event scalar references, pin
the default backend against the golden fixtures, and check every
registered experiment produces byte-identical reports under ``scalar``
and the default backend.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedKernelRunner
from repro.core.config import IntervalSpec, ProfilerConfig
from repro.core.multi_hash import build_profiler
from repro.experiments import EXPERIMENTS, ExperimentScale
from repro.profiling.session import ProfilingSession, feed_many
from repro.service.worker import _Worker
from repro.workloads.benchmarks import benchmark_generator

from test_golden import (GOLDEN_DIR, INTERVALS as GOLDEN_INTERVALS,
                         SEED as GOLDEN_SEED, WORKLOADS)
from test_service import batch_op

SPEC = IntervalSpec(length=200, threshold=0.05)  # threshold_count 10

# Same small tuple universe as test_kernel_parity: heavy aliasing,
# promotion and accumulator pressure against 16-entry tables.
TENANT_EVENTS = st.lists(
    st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                       st.integers(min_value=0, max_value=3)),
             min_size=0, max_size=450),
    min_size=1, max_size=4)

#: Per-round chunk sizes, cycled with a per-tenant phase shift so the
#: batch is ragged: zero-length chunks, single events, and pieces that
#: land exactly on interval boundaries all occur.
SCHEDULE = st.lists(st.integers(min_value=0, max_value=50),
                    min_size=1, max_size=7)

FLAGS = st.tuples(st.booleans(), st.booleans(), st.booleans())

#: (num_tables, conservative_update) pairs covering single-hash,
#: plain multi-hash and conservative update.
ARCHITECTURES = st.sampled_from([(1, False), (2, False), (2, True),
                                 (4, True)])

ACCUMULATORS = st.sampled_from([None, 1, 2, 4])

#: Palette for heterogeneous batches: tenants drawn from these configs
#: mix architectures, flags and accumulator sizes inside one dispatch.
PALETTE = [
    ProfilerConfig(interval=SPEC, total_entries=16, num_tables=1,
                   accumulator_entries=2),
    ProfilerConfig(interval=SPEC, total_entries=16, num_tables=2,
                   resetting=True, accumulator_entries=4),
    ProfilerConfig(interval=SPEC, total_entries=16, num_tables=4,
                   conservative_update=True, shielding=False,
                   accumulator_entries=1),
]


def run_ragged(configs, event_lists, schedule):
    """Drive tenants through one shared runner, scalar refs in lockstep.

    Each round takes one interval-bounded piece per tenant (sizes from
    *schedule*, cycled with a per-tenant phase shift) and hands them
    to a single :meth:`BatchedKernelRunner.dispatch`.  The scalar
    reference profilers consume the same pieces per event, and the
    moment any tenant closes an interval mid-batch its profile and
    stats are compared -- the "interleaved snapshot" case where one
    tenant is at a boundary while others are mid-interval.
    """
    length = SPEC.length
    runner = BatchedKernelRunner()
    batched = [build_profiler(config) for config in configs]
    scalar = [build_profiler(config.with_backend("scalar"))
              for config in configs]
    streams = []
    for events in event_lists:
        pcs = np.array([event[0] for event in events], dtype=np.uint64)
        values = np.array([event[1] for event in events],
                          dtype=np.uint64)
        streams.append((pcs, values))
    positions = [0] * len(streams)
    round_number = 0
    calls = 0
    while True:
        takes = []
        for tenant, (pcs, _) in enumerate(streams):
            want = schedule[(round_number + tenant) % len(schedule)]
            takes.append(min(want, len(pcs) - positions[tenant],
                             length - positions[tenant] % length))
        if not any(takes):
            unfinished = [tenant for tenant, (pcs, _) in
                          enumerate(streams)
                          if positions[tenant] < len(pcs)]
            if not unfinished:
                break
            takes[unfinished[0]] = 1  # guarantee progress
        requests = []
        pieces = []
        for tenant, take in enumerate(takes):
            pcs, values = streams[tenant]
            start = positions[tenant]
            piece = (pcs[start:start + take],
                     values[start:start + take])
            positions[tenant] = start + take
            # Zero-length pieces stay in the dispatch on purpose: the
            # runner must tolerate idle tenants inside a tick.
            requests.append((batched[tenant], *piece))
            pieces.append(piece)
            calls += take > 0
        runner.dispatch(requests)
        for tenant, (piece_pcs, piece_values) in enumerate(pieces):
            reference = scalar[tenant]
            for pc, value in zip(piece_pcs.tolist(),
                                 piece_values.tolist()):
                reference.observe((pc, value))
            if len(piece_pcs) and positions[tenant] % length == 0:
                assert reference.stats.as_dict() == \
                    batched[tenant].stats.as_dict()
                assert list(reference.end_interval().candidates.items()) \
                    == list(batched[tenant].end_interval().candidates
                            .items())
        round_number += 1
    # One kernel call per non-empty piece, and no call for empty ones.
    assert runner.dispatches == calls
    return scalar, batched


def assert_tenants_identical(scalar, batched):
    """Full residual-state equality per tenant, scalar vs batched
    (the multi-session batch on the default backend)."""
    for reference, profiler in zip(scalar, batched):
        assert reference.stats.as_dict() == profiler.stats.as_dict()
        assert reference.accumulator.rejected_inserts == \
            profiler.accumulator.rejected_inserts
        assert reference.accumulator.evictions == \
            profiler.accumulator.evictions
        assert {event: (entry.count, entry.replaceable)
                for event, entry
                in reference.accumulator.raw_entries().items()} == \
            {event: (entry.count, entry.replaceable)
             for event, entry
             in profiler.accumulator.raw_entries().items()}


@given(TENANT_EVENTS, FLAGS, ARCHITECTURES, ACCUMULATORS, SCHEDULE)
@settings(max_examples=40, deadline=None)
def test_ragged_same_config_parity(event_lists, flags, architecture,
                                   accumulator, schedule):
    """Homogeneous batch: every tenant shares one architecture."""
    retaining, resetting, shielding = flags
    num_tables, conservative = architecture
    config = ProfilerConfig(interval=SPEC, total_entries=16,
                            num_tables=num_tables, retaining=retaining,
                            resetting=resetting, shielding=shielding,
                            conservative_update=conservative,
                            accumulator_entries=accumulator)
    scalar, batched = run_ragged([config] * len(event_lists),
                                 event_lists, schedule)
    assert_tenants_identical(scalar, batched)


@given(TENANT_EVENTS,
       st.lists(st.integers(min_value=0, max_value=len(PALETTE) - 1),
                min_size=4, max_size=4),
       SCHEDULE)
@settings(max_examples=40, deadline=None)
def test_ragged_mixed_config_parity(event_lists, picks, schedule):
    """Heterogeneous batch: tenants span several architectures and
    flags inside one dispatch."""
    configs = [PALETTE[picks[tenant]]
               for tenant in range(len(event_lists))]
    scalar, batched = run_ragged(configs, event_lists, schedule)
    assert_tenants_identical(scalar, batched)


def test_ragged_adversarial_shapes():
    """Deterministic edge batch: an empty tenant, a single-event
    tenant, an exact-boundary tenant, and a straggler -- under a
    schedule of mostly zero-length chunks."""
    events = [
        [],
        [(7, 1)],
        [(pc % 40, pc % 3) for pc in range(SPEC.length)],
        [(pc % 17, pc % 4) for pc in range(2 * SPEC.length + 5)],
    ]
    configs = [PALETTE[position % len(PALETTE)]
               for position in range(len(events))]
    scalar, batched = run_ragged(configs, events,
                                 [0, 0, 1, 0, SPEC.length])
    assert_tenants_identical(scalar, batched)


# ---------------------------------------------------------------------
# feed_many: the service's per-shard fold
# ---------------------------------------------------------------------

def test_feed_many_matches_individual_feeds():
    """Feeding many feeders through one runner never changes the
    per-stream results, nor the number of kernel calls."""
    spec = IntervalSpec(length=500, threshold=0.01)
    config = ProfilerConfig(interval=spec, total_entries=64,
                            num_tables=4, conservative_update=True)
    streams = [benchmark_generator("gcc", seed=seed).chunk(1_700)
               for seed in (1, 2, 3)]

    solo = []
    for pcs, values in streams:
        feeder = ProfilingSession(config, keep_profiles=True).feeder()
        assert feeder.feed(pcs, values) == 3
        solo.append(feeder)

    runner = BatchedKernelRunner()
    folded = [ProfilingSession(config, keep_profiles=True).feeder()
              for _ in streams]
    closed = feed_many(
        [(feeder, pcs, values)
         for feeder, (pcs, values) in zip(folded, streams)], runner)
    assert closed == [3, 3, 3]

    # One kernel call per interval-bounded piece (4 per stream) of a
    # compiled-loop profiler, folded or not; none for scalar ones.
    compiled = folded[0].snapshot().single().profiler.supports_array_chunks
    assert runner.dispatches == 12 * compiled
    assert sum(feeder.runner.dispatches for feeder in solo) == 12 * compiled

    for alone, shared in zip(solo, folded):
        mine, theirs = alone.snapshot().single(), \
            shared.snapshot().single()
        assert [list(p.candidates.items()) for p in mine.profiles] == \
            [list(p.candidates.items()) for p in theirs.profiles]
        assert mine.summary.series() == theirs.summary.series()
        assert mine.profiler.stats.as_dict() == \
            theirs.profiler.stats.as_dict()


def test_feed_many_feeds_a_repeated_feeder_in_order():
    """Two batches for one feeder in one call are fed in turn, like
    one concatenated batch."""
    spec = IntervalSpec(length=500, threshold=0.01)
    config = ProfilerConfig(interval=spec, total_entries=64,
                            num_tables=4, conservative_update=True)
    pcs, values = benchmark_generator("gcc", seed=5).chunk(1_300)
    whole = ProfilingSession(config, keep_profiles=True).feeder()
    assert whole.feed(pcs, values) == 2
    split = ProfilingSession(config, keep_profiles=True).feeder()
    assert feed_many([(split, pcs[:700], values[:700]),
                      (split, pcs[700:], values[700:])]) == [1, 1]
    mine, theirs = whole.snapshot().single(), split.snapshot().single()
    assert [list(p.candidates.items()) for p in mine.profiles] == \
        [list(p.candidates.items()) for p in theirs.profiles]
    assert mine.profiler.stats.as_dict() == theirs.profiler.stats.as_dict()
    assert split.pending_events == whole.pending_events == 300


# ---------------------------------------------------------------------
# Worker fold: one tick, its kernel calls counted, per-tick stats
# ---------------------------------------------------------------------

def test_worker_fold_is_one_tick_and_matches_scalar():
    spec = IntervalSpec(length=2_000, threshold=0.01)
    batched_config = ProfilerConfig(interval=spec, total_entries=256,
                                    num_tables=4,
                                    conservative_update=True)
    worker = _Worker(0, snapshot_intervals=8)
    streams = ["alpha", "beta", "gamma"]
    chunks = {}
    for position, stream in enumerate(streams):
        reply = worker.open({"stream": stream,
                             "config": batched_config.to_dict()})
        assert reply["ok"]
        backend = reply["backend"]
        assert backend == build_profiler(batched_config).backend
        chunks[stream] = benchmark_generator(
            "gcc", seed=17 + position).chunk(4_500)

    # Two ops per stream in one tick; split-invariance means the fold
    # concatenates them, and intervals_closed lands on the last op.
    messages = []
    for stream in streams:
        pcs, values = chunks[stream]
        half = len(pcs) // 2
        for piece in ((pcs[:half], values[:half]),
                      (pcs[half:], values[half:])):
            messages.append(batch_op(stream, *piece))
    replies = worker.batch_many(messages)
    assert all(reply["ok"] for reply in replies)
    for ordinal, reply in enumerate(replies):
        # Each stream's two ops sit adjacent; the tick's total closed
        # intervals are reported on the second (last) of the pair.
        assert reply["intervals_closed"] == (2 if ordinal % 2 else 0)

    stats = worker.stats()["stats"]
    assert stats["ticks"] == 1
    # 4500 events over 2000-event intervals: three interval-bounded
    # pieces per stream, each one kernel call on the compiled loop.
    calls = 9 if backend == "vectorized" else 0
    assert stats["kernel_dispatches"] == calls
    assert stats["dispatches_per_tick"] == float(calls)

    for stream in streams:
        snapshot = worker.snapshot({"stream": stream})["snapshot"]
        pcs, values = chunks[stream]
        reference = ProfilingSession(
            batched_config.with_backend("scalar"),
            keep_profiles=True).feeder()
        reference.feed(pcs, values)
        direct = reference.snapshot().single()
        assert snapshot["intervals_completed"] == 2
        for wire, profile in zip(snapshot["intervals"],
                                 direct.profiles):
            candidates = {(pc, value): count
                          for pc, value, count in wire["candidates"]}
            assert candidates == profile.candidates
        assert snapshot["summary"]["per_interval_error_percent"] == \
            [100.0 * value for value in direct.summary.series()]


def test_worker_counts_vectorized_kernel_calls(compiled_kernel):
    """Vectorized tenants are fed one kernel call each per piece; the
    stats count every call."""
    spec = IntervalSpec(length=2_000, threshold=0.01)
    config = ProfilerConfig(interval=spec, total_entries=256,
                            backend="vectorized")
    worker = _Worker(0, snapshot_intervals=8)
    streams = [f"tenant-{position}" for position in range(5)]
    messages = []
    for position, stream in enumerate(streams):
        reply = worker.open({"stream": stream, "config": config.to_dict()})
        assert reply["ok"] and reply["backend"] == "vectorized"
        pcs, values = benchmark_generator("gcc",
                                          seed=31 + position).chunk(100)
        messages.append(batch_op(stream, pcs, values))
    assert all(reply["ok"] for reply in worker.batch_many(messages))

    stats = worker.stats()["stats"]
    assert stats["ticks"] == 1
    assert stats["kernel_dispatches"] == len(streams)
    assert stats["dispatches_per_tick"] == float(len(streams))


def test_worker_fold_reports_bad_streams_in_place():
    worker = _Worker(0, snapshot_intervals=8)
    config = ProfilerConfig(interval=SPEC, total_entries=16)
    worker.open({"stream": "good", "config": config.to_dict()})
    chunk = np.arange(5, dtype=np.uint64)
    empty = np.zeros(0, dtype=np.uint64)
    replies = worker.batch_many([
        batch_op("good", chunk, chunk),
        batch_op("ghost", empty, empty),
        batch_op("good", chunk, chunk),
    ])
    assert replies[0]["ok"] and replies[2]["ok"]
    assert not replies[1]["ok"]
    assert replies[1]["code"] == "unknown-stream"
    assert replies[2]["events"] == 10
    assert worker.stats()["stats"]["ticks"] == 1


# ---------------------------------------------------------------------
# Golden fixtures: a two-tenant session pinned to the checked-in
# snapshots
# ---------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_golden_fixtures_batched(workload):
    """A two-tenant session on the default backend (both tenants share
    the fixture's architecture and every piece) reproduces the golden
    snapshot byte for byte -- for each tenant."""
    config = WORKLOADS[workload]()
    session = ProfilingSession([config, config], keep_profiles=True)
    outcome = session.run(benchmark_generator("gcc", seed=GOLDEN_SEED),
                          max_intervals=GOLDEN_INTERVALS)
    path = GOLDEN_DIR / f"{workload}.json"
    assert path.exists(), f"missing fixture {path}"
    expected = json.loads(path.read_text(encoding="utf-8"))
    assert len(outcome.results) == 2
    for result in outcome.results.values():
        observed = {
            "intervals": [
                {"index": profile.index,
                 "candidates": sorted(
                     [int(pc), int(value), int(count)]
                     for (pc, value), count
                     in profile.candidates.items())}
                for profile in result.profiles
            ],
            "stats": result.profiler.stats.as_dict(),
            "error_series": [round(point, 12)
                             for point in result.summary.series()],
        }
        assert observed == expected


# ---------------------------------------------------------------------
# Experiments: every figure, scalar vs the default backend,
# byte-identical reports
# ---------------------------------------------------------------------

MICRO = replace(ExperimentScale().tiny(), benchmarks=("li",),
                short_intervals=2, long_intervals=1,
                long_interval_length=10_000)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_batched_matches_scalar(name):
    scalar = EXPERIMENTS[name](replace(MICRO, backend="scalar"))
    batched = EXPERIMENTS[name](replace(MICRO, backend="auto"))
    assert batched.tables == scalar.tables
    assert batched.data == scalar.data
