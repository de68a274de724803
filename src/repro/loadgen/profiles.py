"""Named workload profiles for the service load harness.

A :class:`LoadProfile` is a declarative description of one load shape:
how many tenant streams, how many events each pushes, how the pushes
are framed (batch size, coalescing factor), how many TCP connections
multiplex the tenants, and what traffic source feeds them.  The
registry mirrors the named-profile discipline of llm-d-benchmark's
harness: tests and CI reference profiles by name instead of
hand-rolling load loops.

Sources:

* ``benchmark`` -- a calibrated benchmark generator per tenant
  (:func:`~repro.workloads.benchmarks.benchmark_generator`), seeded
  per tenant so the streams are distinct but reproducible.
* ``scenario`` -- a :class:`~repro.workloads.scenarios.ScenarioStream`
  per tenant built from a shipped preset (``stress_test``,
  ``adversarial``, ``heavy_hitters``), reusing the scenario suite as a
  traffic source.

Every profile is deterministic: the per-tenant ``chunk()`` call
pattern depends only on ``events_per_stream`` and ``batch_events``,
never on the coalescing factor, so the same profile pushed at any
coalescing factor produces byte-identical event streams and therefore
identical profile digests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List

#: Concurrent streams of the headline profiles (steady, bursty, mixed).
HEADLINE_STREAMS = 256


@dataclass(frozen=True)
class LoadProfile:
    """One named load shape (see module docstring)."""

    name: str
    description: str
    #: Concurrent tenant streams.
    streams: int
    #: Events each tenant pushes over the run.
    events_per_stream: int
    #: Events per generation chunk (one chunk() call).
    batch_events: int
    #: Generation chunks coalesced into one frame.
    coalesce: int
    #: TCP connections; tenants are partitioned across them.
    connections: int
    #: Issue a live snapshot every N pushes per tenant (0 = only the
    #: per-tenant snapshot every run ends with).
    snapshot_every: int = 0
    #: Consecutive push requests per tenant before the connection
    #: rotates to its next tenant (1 = smooth round-robin; larger
    #: values make the arrival pattern bursty per shard).
    burst: int = 1
    #: ``benchmark`` or ``scenario``.
    source: str = "benchmark"
    #: Calibrated workload name for the ``benchmark`` source.
    benchmark: str = "gcc"
    #: Preset name for the ``scenario`` source.
    scenario: str = ""
    #: Deliberately misbehaving clients that stop reading replies
    #: (exercises the server's slow-reader shedding).
    slow_readers: int = 0
    #: Profiler interval length for every tenant's stream.
    interval_length: int = 2048
    #: Candidate threshold fraction.
    threshold: float = 0.01
    #: Base seed; tenant ``i`` draws from ``seed + i``.
    seed: int = 7

    def __post_init__(self) -> None:
        if self.streams < 1:
            raise ValueError(f"streams must be >= 1, got {self.streams}")
        if self.events_per_stream < 1:
            raise ValueError(f"events_per_stream must be >= 1, "
                             f"got {self.events_per_stream}")
        if self.batch_events < 1:
            raise ValueError(f"batch_events must be >= 1, "
                             f"got {self.batch_events}")
        if self.coalesce < 1:
            raise ValueError(f"coalesce must be >= 1, "
                             f"got {self.coalesce}")
        if not 1 <= self.connections <= self.streams:
            raise ValueError(f"connections must be in [1, streams], "
                             f"got {self.connections}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.source not in ("benchmark", "scenario"):
            raise ValueError(f"source must be 'benchmark' or "
                             f"'scenario', got {self.source!r}")
        if self.source == "scenario" and not self.scenario:
            raise ValueError("scenario source needs a preset name")

    @property
    def total_events(self) -> int:
        return self.streams * self.events_per_stream

    def scaled(self, streams_cap: int,
               events_cap: int) -> "LoadProfile":
        """A shrunken copy for smoke runs (CI, tests).

        Caps streams and per-stream events, keeping connections and
        slow readers within the new stream count.
        """
        streams = min(self.streams, streams_cap)
        return dataclasses.replace(
            self,
            streams=streams,
            events_per_stream=min(self.events_per_stream, events_cap),
            connections=min(self.connections, streams),
            slow_readers=min(self.slow_readers, streams),
        )


def _builtin_profiles() -> List[LoadProfile]:
    return [
        LoadProfile(
            name="steady",
            description="256 tenants pushing fine-grained 64-event "
                        "ticks smooth round-robin over 16 connections",
            streams=HEADLINE_STREAMS, events_per_stream=4096,
            batch_events=64, coalesce=32, connections=16),
        LoadProfile(
            name="bursty",
            description="256 tenants whose connections burst 8 "
                        "consecutive requests per tenant before "
                        "rotating",
            streams=HEADLINE_STREAMS, events_per_stream=4096,
            batch_events=128, coalesce=16, connections=16, burst=8),
        LoadProfile(
            name="fan_in",
            description="512 small tenants fanning into 8 "
                        "connections (high open/close and routing "
                        "pressure)",
            streams=512, events_per_stream=2048,
            batch_events=128, coalesce=16, connections=8),
        LoadProfile(
            name="mixed",
            description="256 tenants interleaving a live snapshot "
                        "query after every 4 pushes",
            streams=HEADLINE_STREAMS, events_per_stream=4096,
            batch_events=128, coalesce=4, connections=16,
            snapshot_every=4),
        LoadProfile(
            name="scenario_stress",
            description="64 tenants replaying the stress_test "
                        "scenario preset as live traffic",
            streams=64, events_per_stream=4096,
            batch_events=512, coalesce=8, connections=8,
            source="scenario", scenario="stress_test"),
        LoadProfile(
            name="scenario_adversarial",
            description="64 tenants replaying the adversarial "
                        "aliasing scenario preset as live traffic",
            streams=64, events_per_stream=4096,
            batch_events=512, coalesce=8, connections=8,
            source="scenario", scenario="adversarial"),
        LoadProfile(
            name="scenario_heavy_hitters",
            description="64 tenants replaying the heavy_hitters "
                        "network-stream preset as live traffic",
            streams=64, events_per_stream=4096,
            batch_events=512, coalesce=8, connections=8,
            source="scenario", scenario="heavy_hitters"),
    ]


#: Registry of shipped profiles, by name.
PROFILES: Dict[str, LoadProfile] = {
    profile.name: profile for profile in _builtin_profiles()}


def get_profile(name: str) -> LoadProfile:
    """Look up a shipped profile; raises ``ValueError`` on a bad name."""
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ValueError(f"unknown load profile {name!r} "
                         f"(shipped: {known})") from None


def list_profiles() -> List[str]:
    """Shipped profile names, sorted."""
    return sorted(PROFILES)
