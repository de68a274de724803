"""Load harness: drive a profile server hard and measure it.

The harness owns the whole measurement: it starts an embedded
:class:`~repro.service.server.ProfileServer` on an ephemeral port,
partitions a profile's tenant streams across a pool of connection
threads, drives every tenant's full event budget through blocking
:class:`~repro.service.client.ProfileClient` requests, and folds the
per-thread measurements into one metrics row::

    events/sec, requests/sec, p50/p99 push and snapshot latency,
    failure counts and rate, server-side shed/busy counters,
    and a SHA-256 digest of every tenant's final profile.

The digest covers profile *content* only (intervals, candidates,
error summaries, event counts) -- not operational counters like the
number of frames a stream happened to arrive in -- so two runs that
frame the same events differently (coalesced or not) must produce the
same digest.

Slow readers: a profile may include clients that deliberately stop
reading replies.  They are driven over raw sockets (a well-behaved
:class:`ProfileClient` cannot misbehave this way) and are expected to
be shed by the server's drain timeout; their sheds are counted
separately from regular-tenant failures so a test can assert "slow
readers died, nobody else noticed".
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import IntervalSpec, ProfilerConfig
from ..service import ProfileClient, ProfileServer, ServiceError
from ..service import protocol
from .profiles import LoadProfile

#: Events a slow reader pushes normally before it stops reading.
SLOW_READER_WARMUP_EVENTS = 4096

#: Unread snapshot requests a slow reader fires before giving up on
#: being shed (a cap so a run cannot hang if shedding is disabled).
SLOW_READER_MAX_UNREAD = 20_000


def _percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *samples* (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1,
               max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def _latency_summary(samples: List[float]) -> Dict[str, float]:
    return {
        "samples": len(samples),
        "p50_ms": 1000.0 * _percentile(samples, 0.50),
        "p99_ms": 1000.0 * _percentile(samples, 0.99),
        "mean_ms": (1000.0 * sum(samples) / len(samples)
                    if samples else 0.0),
    }


def _tenant_source(profile: LoadProfile, index: int):
    """Build tenant *index*'s traffic source (anything with chunk())."""
    seed = profile.seed + index
    if profile.source == "scenario":
        from ..workloads.scenarios import ScenarioStream, load_scenario

        return ScenarioStream(load_scenario(profile.scenario, seed=seed))
    from ..workloads.benchmarks import benchmark_generator

    return benchmark_generator(profile.benchmark, seed=seed)


def profile_digest(snapshots: Dict[str, Dict[str, Any]]) -> str:
    """SHA-256 over the profile *content* of per-tenant snapshots.

    Operational fields that depend on framing (``batches``) or on
    snapshot timing (``pending_events``) are excluded; what remains is
    exactly what the profiler computed, so any two data paths feeding
    the same events must agree byte for byte.
    """
    content = {
        stream: {
            "profiler": snap.get("profiler"),
            "backend": snap.get("backend"),
            "events": snap.get("events"),
            "intervals_completed": snap.get("intervals_completed"),
            "flushed_partial": snap.get("flushed_partial"),
            "intervals": snap.get("intervals"),
            "summary": snap.get("summary"),
        }
        for stream, snap in snapshots.items()}
    canonical = json.dumps(content, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _Tenant:
    """One stream's driving state inside a connection thread.

    All event chunks are generated up front, outside the timed
    window: the harness measures the service data plane, not the
    synthetic-trace generator.  The chunk() call pattern depends only
    on ``batch_events`` and the event budget -- never on *coalesce* --
    so runs at any coalescing factor ship byte-identical streams and
    their profile digests must match.
    """

    def __init__(self, profile: LoadProfile, index: int,
                 coalesce: int) -> None:
        self.stream = f"{profile.name}-{index:04d}"
        source = _tenant_source(profile, index)
        self.payloads: List[List[Tuple[np.ndarray, np.ndarray]]] = []
        remaining = profile.events_per_stream
        while remaining > 0:
            chunks = []
            while remaining > 0 and len(chunks) < coalesce:
                count = min(remaining, profile.batch_events)
                chunks.append(source.chunk(count))
                remaining -= count
            self.payloads.append(chunks)
        self.next_payload = 0
        self.pushes = 0

    @property
    def remaining(self) -> int:
        """Payloads not yet pushed (0 when the budget is drained)."""
        return len(self.payloads) - self.next_payload


class _ThreadResult:
    """Metrics one connection thread collects (merged after join)."""

    def __init__(self) -> None:
        self.events = 0
        self.requests = 0
        self.failures = 0
        self.push_latencies: List[float] = []
        self.snapshot_latencies: List[float] = []
        self.snapshots: Dict[str, Dict[str, Any]] = {}
        self.error: Optional[BaseException] = None


def _drive_connection(profile: LoadProfile, port: int,
                      tenants: List[_Tenant],
                      result: _ThreadResult) -> None:
    """Drive *tenants* over one connection until their budgets drain."""
    try:
        with ProfileClient(port=port) as client:
            config = ProfilerConfig(
                interval=IntervalSpec(profile.interval_length,
                                      profile.threshold))
            for tenant in tenants:
                client.open_stream(tenant.stream, config)
                result.requests += 1
            active = list(tenants)
            while active:
                still = []
                for tenant in active:
                    for _ in range(profile.burst):
                        if tenant.remaining <= 0:
                            break
                        _push_once(profile, client, tenant, result)
                    if tenant.remaining > 0:
                        still.append(tenant)
                active = still
            for tenant in tenants:
                started = time.perf_counter()
                snapshot = client.snapshot(tenant.stream)
                result.snapshot_latencies.append(
                    time.perf_counter() - started)
                result.requests += 1
                assert snapshot is not None
                final = client.close_stream(tenant.stream)
                result.requests += 1
                result.snapshots[tenant.stream] = final
    except BaseException as error:  # merged by the caller
        result.error = error


def _push_once(profile: LoadProfile, client: ProfileClient,
               tenant: _Tenant, result: _ThreadResult) -> None:
    """One push request (the tenant's next pre-generated payload)."""
    chunks = tenant.payloads[tenant.next_payload]
    tenant.next_payload += 1
    events = sum(len(pcs) for pcs, _ in chunks)
    started = time.perf_counter()
    try:
        client.push_chunks(tenant.stream, chunks)
    except (ServiceError, ConnectionError):
        result.failures += 1
        result.requests += 1
        return
    result.push_latencies.append(time.perf_counter() - started)
    result.requests += 1
    result.events += events
    tenant.pushes += 1
    if (profile.snapshot_every
            and tenant.pushes % profile.snapshot_every == 0):
        started = time.perf_counter()
        try:
            client.snapshot(tenant.stream)
        except (ServiceError, ConnectionError):
            result.failures += 1
        else:
            result.snapshot_latencies.append(
                time.perf_counter() - started)
        result.requests += 1


def _run_slow_reader(profile: LoadProfile, port: int, index: int,
                     outcome: Dict[str, int]) -> None:
    """A client that stops reading replies until the server sheds it.

    Warms its stream up through a well-behaved client (so the server
    has real snapshot state to answer with), then floods snapshot
    requests over a raw socket without ever reading a reply.  The
    server's reply stream backs up, its ``drain_timeout`` fires, and
    the connection is reset -- which this thread records as its shed.
    """
    stream = f"{profile.name}-slow-{index:02d}"
    config = ProfilerConfig(
        interval=IntervalSpec(profile.interval_length,
                              profile.threshold))
    source = _tenant_source(profile, 10_000 + index)
    try:
        with ProfileClient(port=port) as client:
            client.open_stream(stream, config)
            client.push_generator(stream, source,
                                  SLOW_READER_WARMUP_EVENTS,
                                  batch_events=profile.batch_events)
        frame = protocol.encode_json(protocol.T_SNAPSHOT,
                                     {"stream": stream})
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as raw:
            # Tiny socket buffers so the unread reply stream backs up
            # into the server's write buffer almost immediately --
            # otherwise kernel buffering could absorb the whole flood
            # and the drain timeout would never be exercised.
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
            raw.settimeout(30.0)
            raw.connect(("127.0.0.1", port))
            for _ in range(SLOW_READER_MAX_UNREAD):
                raw.sendall(frame)
        outcome["survived"] = outcome.get("survived", 0) + 1
    except (ConnectionError, BrokenPipeError, socket.timeout, OSError):
        outcome["shed"] = outcome.get("shed", 0) + 1


def run_profile(profile: LoadProfile, *,
                num_workers: int = 2,
                max_pending: int = 64,
                drain_timeout: float = 2.0) -> Dict[str, Any]:
    """Run one profile against a fresh embedded server; return its row."""
    tenants = [_Tenant(profile, index, profile.coalesce)
               for index in range(profile.streams)]
    shares: List[List[_Tenant]] = [[] for _ in range(profile.connections)]
    for index, tenant in enumerate(tenants):
        shares[index % profile.connections].append(tenant)
    with ProfileServer(num_workers=num_workers,
                       max_pending=max_pending,
                       drain_timeout=drain_timeout) as server:
        results = [_ThreadResult() for _ in shares]
        threads = [
            threading.Thread(
                target=_drive_connection,
                args=(profile, server.port, share, result),
                name=f"loadgen-{profile.name}-{position}")
            for position, (share, result)
            in enumerate(zip(shares, results))]
        slow_outcome: Dict[str, int] = {}
        slow_threads = [
            threading.Thread(
                target=_run_slow_reader,
                args=(profile, server.port, index, slow_outcome),
                name=f"loadgen-{profile.name}-slow-{index}")
            for index in range(profile.slow_readers)]
        started = time.perf_counter()
        for thread in threads + slow_threads:
            thread.start()
        for thread in threads + slow_threads:
            thread.join()
        elapsed = time.perf_counter() - started
        with ProfileClient(port=server.port) as client:
            stats = client.server_stats()
    for result in results:
        if result.error is not None:
            raise RuntimeError(
                f"loadgen connection thread failed on profile "
                f"{profile.name!r}") from result.error
    events = sum(result.events for result in results)
    requests = sum(result.requests for result in results)
    failures = sum(result.failures for result in results)
    push_latencies = [sample for result in results
                      for sample in result.push_latencies]
    snapshot_latencies = [sample for result in results
                          for sample in result.snapshot_latencies]
    snapshots: Dict[str, Dict[str, Any]] = {}
    for result in results:
        snapshots.update(result.snapshots)
    server_stats = stats.get("server", {})
    return {
        "profile": profile.name,
        "streams": profile.streams,
        "connections": profile.connections,
        "batch_events": profile.batch_events,
        "coalesce": profile.coalesce,
        "events": events,
        "requests": requests,
        "failures": failures,
        "failure_rate": (failures / requests) if requests else 0.0,
        "elapsed_seconds": elapsed,
        "events_per_second": events / elapsed if elapsed else 0.0,
        "requests_per_second": requests / elapsed if elapsed else 0.0,
        "push_latency": _latency_summary(push_latencies),
        "snapshot_latency": _latency_summary(snapshot_latencies),
        "slow_readers": profile.slow_readers,
        "slow_readers_shed": slow_outcome.get("shed", 0),
        "slow_readers_survived": slow_outcome.get("survived", 0),
        "server": {
            "busy_rejections": server_stats.get("busy_rejections", 0),
            "slow_client_sheds": server_stats.get("slow_client_sheds",
                                                  0),
            "protocol_errors": server_stats.get("protocol_errors", 0),
            "frames": server_stats.get("frames", 0),
        },
        "digest": profile_digest(snapshots),
    }
