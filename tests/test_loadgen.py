"""Tests for the service load harness (repro.loadgen).

The expensive full-scale runs live in ``make bench-service``; here
every run is scaled down to a few tenants so the suite stays fast,
while still exercising the real embedded server, coalescing, the
digest machinery, and slow-reader shedding end to end.
"""

import dataclasses
import gc
import warnings

import pytest

from repro.loadgen import (
    HEADLINE_STREAMS,
    PROFILES,
    LoadProfile,
    get_profile,
    list_profiles,
    profile_digest,
    run_profile,
)


class TestProfileRegistry:
    def test_shipped_profiles(self):
        names = list_profiles()
        for expected in ("steady", "bursty", "fan_in", "mixed",
                         "scenario_stress", "scenario_adversarial",
                         "scenario_heavy_hitters"):
            assert expected in names
        assert names == sorted(names)

    def test_headline_profiles_run_at_256_streams(self):
        assert HEADLINE_STREAMS == 256
        for name in ("steady", "bursty", "mixed"):
            assert get_profile(name).streams == HEADLINE_STREAMS

    def test_get_profile_unknown_name(self):
        with pytest.raises(ValueError, match="unknown load profile"):
            get_profile("nope")

    def test_registry_matches_list(self):
        assert sorted(PROFILES) == list_profiles()

    def test_scaled_caps_everything(self):
        profile = dataclasses.replace(get_profile("steady"),
                                      slow_readers=4)
        small = profile.scaled(streams_cap=8, events_cap=100)
        assert small.streams == 8
        assert small.events_per_stream == 100
        assert small.connections <= small.streams
        assert small.slow_readers <= small.streams
        assert small.total_events == 800

    def test_scaled_is_a_noop_when_under_caps(self):
        profile = get_profile("steady")
        assert profile.scaled(10_000, 1_000_000) == profile

    def test_validation_rejects_bad_shapes(self):
        good = get_profile("steady")
        with pytest.raises(ValueError, match="streams"):
            dataclasses.replace(good, streams=0)
        with pytest.raises(ValueError, match="connections"):
            dataclasses.replace(good, connections=good.streams + 1)
        with pytest.raises(ValueError, match="coalesce"):
            dataclasses.replace(good, coalesce=0)
        with pytest.raises(ValueError, match="preset"):
            dataclasses.replace(good, source="scenario", scenario="")


class TestProfileDigest:
    def test_ignores_framing_dependent_fields(self):
        base = {"t0": {"profiler": "conprof", "events": 100,
                       "intervals": [], "summary": {"x": 1},
                       "batches": 4, "pending_events": 7}}
        reframed = {"t0": dict(base["t0"], batches=1,
                               pending_events=0)}
        assert profile_digest(base) == profile_digest(reframed)

    def test_sensitive_to_content(self):
        base = {"t0": {"events": 100, "summary": {"x": 1}}}
        other = {"t0": {"events": 101, "summary": {"x": 1}}}
        assert profile_digest(base) != profile_digest(other)


class TestHarness:
    def test_coalescing_keeps_the_digest_small_steady(self):
        profile = get_profile("steady").scaled(streams_cap=8,
                                               events_cap=512)
        assert profile.coalesce > 1
        single = run_profile(dataclasses.replace(profile, coalesce=1))
        coalesced = run_profile(profile)
        for row in (single, coalesced):
            assert row["events"] == profile.total_events
            assert row["failures"] == 0
            assert row["events_per_second"] > 0
            assert row["push_latency"]["samples"] > 0
        # One chunk per request against several: the same events in
        # strictly fewer requests, with the same profiles.
        assert coalesced["requests"] < single["requests"]
        assert coalesced["digest"] == single["digest"]

    def test_run_profile_leaves_no_socket_open(self):
        profile = get_profile("steady").scaled(streams_cap=4,
                                               events_cap=256)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_profile(profile)
            gc.collect()
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_scenario_profile_round_trip(self):
        profile = get_profile("scenario_heavy_hitters").scaled(
            streams_cap=4, events_cap=512)
        row = run_profile(profile)
        assert row["events"] == profile.total_events
        assert row["failures"] == 0
        assert row["digest"]

    def test_run_profile_is_deterministic(self):
        profile = get_profile("steady").scaled(streams_cap=4,
                                               events_cap=256)
        first = run_profile(profile)
        second = run_profile(profile)
        assert first["digest"] == second["digest"]

    def test_mixed_profile_collects_live_snapshots(self):
        profile = get_profile("mixed").scaled(streams_cap=4,
                                              events_cap=2048)
        row = run_profile(profile)
        # Final snapshots plus at least one mid-run snapshot each.
        assert (row["snapshot_latency"]["samples"]
                > profile.streams)


class TestSlowReaderShedding:
    def test_slow_readers_shed_without_stalling_tenants(self):
        profile = LoadProfile(
            name="shed_test",
            description="slow readers next to regular tenants",
            streams=6, events_per_stream=1024,
            batch_events=128, coalesce=4, connections=3,
            slow_readers=2)
        row = run_profile(profile, drain_timeout=0.5)
        # Every misbehaving client was shed by the drain timeout...
        assert row["slow_readers_shed"] == 2
        assert row["slow_readers_survived"] == 0
        assert row["server"]["slow_client_sheds"] >= 1
        # ...and no regular tenant was harmed: zero failed requests,
        # every event accounted for, and final snapshots stayed
        # responsive (the shed path must not stall the event loop).
        assert row["failures"] == 0
        assert row["failure_rate"] == 0.0
        assert row["events"] == profile.total_events
        assert row["snapshot_latency"]["p99_ms"] < 5000.0
