"""Service workloads: a ``repro-profile serve`` process under a closed loop.

One benchmark process loads the server over two connections, one
thread each.  ``ProfileClient`` is blocking request/reply, so each
connection has one request in flight and each of its tenants waits for
its ack before the connection moves on to its next tenant (round
robin).  The server runs with its default two workers.
"""

from __future__ import annotations

import contextlib
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import IntervalSpec
from repro.service import HashRing, ProfileClient, ServiceError

from perfbench import common, tracing

#: TCP connections the load is spread over.
CONNECTIONS = 2

#: Server worker processes (the server's default); sizes the hash
#: ring that :func:`tenant_name` balances the tenants over.
WORKERS = 2

#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 7

#: Tenant indices of the frozen pair: a best-SH and a best-MH4 stream
#: (see :class:`Tenant`) that are prefilled with one interval and then
#: only snapshotted, so their snapshots cost the same whatever the
#: throughput.  One interval keeps a snapshot small: its cost is the
#: fixed cost of a request, as for the workload's pushes.  They are
#: sampled inside the push load (see :func:`_drive`): sampled alone on
#: an idle server, their latency switched between two modes 1.8x apart
#: from run to run.
FROZEN = (8, 10)

#: Seconds to wait for the server to listen or to drain.
SERVER_TIMEOUT = 60.0

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")


@dataclass(frozen=True)
class ServiceShape:
    """Sizes of one service workload."""

    tenants: int
    push_events: int
    interval: IntervalSpec
    #: A snapshot sample of the frozen pair (see
    #: :func:`_snapshot_sample`) follows every this many pushes of a
    #: connection.
    snapshot_every: int
    #: Upper bound on acknowledged events per second, used only to
    #: size the pre-generated streams.
    max_events_per_s: int
    #: Pushes' worth of events each round-robin stream receives in one
    #: untimed request after set-up.
    prefill_pushes: int


class ServerProcess:
    """A profile server in its own process, stopped with SIGINT."""

    def __init__(self, root: str, span_dir: Optional[str] = None) -> None:
        if span_dir is None:
            command = [sys.executable, "-m", "repro.cli", "serve",
                       "--host", "127.0.0.1", "--port", "0"]
        else:
            command = [sys.executable, "-m", "perfbench.launcher",
                       "--span-dir", span_dir]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root])
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.process.stdout], [], [],
                                    SERVER_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line.strip()!r}")
        self.port = int(match.group(2))

    @property
    def pid(self) -> int:
        return self.process.pid

    def peak_rss_kb(self) -> int:
        """Summed ``VmHWM`` of the server process and its workers."""
        pids = [self.pid] + common.children_of(self.pid)
        return sum(common.status_kb(pid, "VmHWM") for pid in pids)

    def stop(self) -> None:
        """Drain and stop the server; waits for it to exit.  A server
        that does not drain in time is killed with its workers."""
        if self.process.poll() is None:
            workers = common.children_of(self.pid)
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.communicate(timeout=SERVER_TIMEOUT)
            except subprocess.TimeoutExpired:
                for pid in workers:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self.process.kill()
                self.process.communicate()
        elif self.process.stdout is not None:
            self.process.stdout.close()


def tenant_name(index: int) -> str:
    """Stream id of tenant *index*, chosen so the load is balanced.

    Tenant ``i`` is driven by connection ``i % 2``, runs best-SH or
    best-MH4 by ``(i // 2) % 2`` and is owned by shard ``(i // 4) % 2``
    of the server's consistent-hash ring: every connection and every
    shard carries both architectures.
    """
    ring = HashRing(range(WORKERS))
    shard = (index // (2 * CONNECTIONS)) % WORKERS
    suffix = 0
    while ring.shard_for(f"tenant-{index:02d}-{suffix}") != shard:
        suffix += 1
    return f"tenant-{index:02d}-{suffix}"


class Tenant:
    """One stream: its config, its pre-generated events, its cursor."""

    def __init__(self, index: int, shape: ServiceShape, pcs: np.ndarray,
                 values: np.ndarray) -> None:
        self.name = tenant_name(index)
        self.config = common.tenant_config(index // CONNECTIONS,
                                           shape.interval)
        self.pcs = pcs
        self.values = values
        self.push_events = shape.push_events
        self.pushes = 0
        self.requests = 0

    @property
    def capacity(self) -> int:
        return len(self.pcs) // self.push_events

    @property
    def events_fed(self) -> int:
        return self.pushes * self.push_events

    def next_slice(self):
        start = self.pushes * self.push_events
        stop = start + self.push_events
        return self.pcs[start:stop], self.values[start:stop]


class Lane:
    """One connection's measurements."""

    def __init__(self, client: ProfileClient, tenants: List[Tenant],
                 frozen: Sequence[Tenant]) -> None:
        self.client = client
        self.tenants = tenants
        #: The frozen pair, which the lane's snapshot samples read.
        self.frozen = list(frozen)
        self.sent = 0
        self.pushes: List[common.Record] = []
        self.snapshots: List[common.Record] = []
        self.failures = 0
        self.exhausted = False
        self.error: Optional[BaseException] = None


def _push(lane: Lane, tenant: Tenant,
          tracer: Optional[tracing.Tracer]) -> None:
    pcs, values = tenant.next_slice()
    opened = tracer.begin() if tracer else None
    started = time.perf_counter()
    start_ns = time.perf_counter_ns()
    try:
        lane.client.push(tenant.name, pcs, values)
    except ServiceError:
        lane.failures += 1
        tenant.requests += 1
        return
    finally:
        if tracer:
            tracer.end(opened, "bench.push", start_ns, len(pcs))
    done = time.perf_counter()
    lane.pushes.append((done, done - started, len(pcs)))
    tenant.pushes += 1
    tenant.requests += 1


def _snapshot_sample(lane: Lane, tracer: Optional[tracing.Tracer]) -> None:
    """One snapshot sample: live snapshots of the frozen pair, one
    after the other on the lane's connection.  A sample of one stream
    would be half best-SH and half best-MH4 snapshots, and the median
    would sit on the edge between their costs."""
    opened = tracer.begin() if tracer else None
    started = time.perf_counter()
    start_ns = time.perf_counter_ns()
    try:
        for tenant in lane.frozen:
            tenant.requests += 1
            lane.client.snapshot(tenant.name)
    except ServiceError:
        lane.failures += 1
    else:
        done = time.perf_counter()
        lane.snapshots.append((done, done - started, 0))
    finally:
        if tracer:
            tracer.end(opened, "bench.snapshot", start_ns, 0)


def _drive(lane: Lane, snapshot_every: int, deadline: Optional[float],
           targets: Optional[Dict[str, int]], stop: threading.Event,
           tracer: Optional[tracing.Tracer]) -> None:
    """Round-robin the lane's tenants until *deadline* (timed window)
    or until each tenant reached its *targets* push count (replay).
    Every *snapshot_every* pushes of the lane are followed by one
    snapshot sample."""
    try:
        while not stop.is_set():
            progressed = False
            for tenant in lane.tenants:
                if deadline is not None:
                    if time.perf_counter() >= deadline:
                        return
                    if tenant.pushes >= tenant.capacity:
                        lane.exhausted = True
                        stop.set()
                        return
                elif tenant.pushes >= targets[tenant.name]:
                    continue
                _push(lane, tenant, tracer)
                progressed = True
                lane.sent += 1
                if lane.sent % snapshot_every == 0:
                    _snapshot_sample(lane, tracer)
            if not progressed:
                return
    except BaseException as error:  # re-raised by the caller
        lane.error = error
        stop.set()


def _run_lanes(lanes: Sequence[Lane], target, *args) -> float:
    threads = [threading.Thread(target=target, args=(lane,) + args)
               for lane in lanes]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    for lane in lanes:
        if lane.error is not None:
            raise RuntimeError("load connection failed") from lane.error
    return elapsed


class Deployment:
    """A started server with every tenant's stream open and warmed.

    The *frozen* tenants' streams are opened on the first connection
    but are not part of any round robin; every connection snapshots
    them (see :func:`_drive`)."""

    def __init__(self, root: str, tenants: List[Tenant],
                 frozen: Sequence[Tenant],
                 span_dir: Optional[str] = None) -> None:
        started = time.perf_counter()
        self.lanes: List[Lane] = []
        self.frozen = list(frozen)
        self.server = ServerProcess(root, span_dir)
        try:
            for position in range(CONNECTIONS):
                client = ProfileClient(port=self.server.port)
                self.lanes.append(Lane(client, tenants[position::CONNECTIONS],
                                       frozen))
            self.streams = ([(lane, tenant) for lane in self.lanes
                             for tenant in lane.tenants]
                            + [(self.lanes[0], tenant) for tenant in frozen])
            for lane, tenant in self.streams:
                lane.client.open_stream(tenant.name, tenant.config)
                tenant.requests += 1
            # One push per stream builds its lazy hash fold tables.
            for lane, tenant in self.streams:
                lane.client.push(tenant.name, *tenant.next_slice())
                tenant.pushes += 1
                tenant.requests += 1
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - started

    def prefill(self, pushes: int) -> None:
        """Push *pushes* pushes' worth of every round-robin stream, and
        one interval of every frozen stream, in one request each."""
        for lane, tenant in self.streams:
            count = (_frozen_pushes(tenant) if tenant in self.frozen
                     else pushes)
            start = tenant.events_fed
            stop = start + count * tenant.push_events
            lane.client.push(tenant.name, tenant.pcs[start:stop],
                             tenant.values[start:stop])
            tenant.pushes += count
            tenant.requests += 1

    def close_streams(self) -> Dict[str, str]:
        """Close every stream; content digest of each final snapshot."""
        digests = {}
        for lane, tenant in self.streams:
            final = lane.client.close_stream(tenant.name)
            tenant.requests += 1
            digests[tenant.name] = common.content_digest(final)
        return digests

    def busy_rejections(self) -> int:
        stats = self.lanes[0].client.server_stats()
        return int(stats["server"]["busy_rejections"])

    def stop(self) -> None:
        for lane in self.lanes:
            lane.client.close()
        self.server.stop()


@contextlib.contextmanager
def _one_cpu():
    """Run the benchmark process, and the servers it starts, on one CPU.

    Servers and their forked workers inherit the mask.  Unpinned, each
    request's cross-process wake-ups land on idle vCPUs whose wake-up
    latency follows the host's load: on the 2-vCPU box this benchmark
    was sized on, one seed's events/s ranged from 53k to 110k between
    runs, against 80k to 92k pinned, and placing the server or one
    worker on the other vCPU tripled the spreads (WORKLOADS.md).  On
    one CPU nothing idles during the window, so the metrics follow the
    CPU cost of the request path; the two shards never run in
    parallel, so their parallelism is not measured.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def _tenants(seed: int, indices: Sequence[int], events: int,
             shape: ServiceShape) -> List[Tenant]:
    streams = common.generate_streams(seed, indices, events)
    return [Tenant(index, shape, pcs, values)
            for index, (pcs, values) in zip(indices, streams)]


def _frozen(seed: int, shape: ServiceShape) -> List[Tenant]:
    return _tenants(seed, FROZEN, shape.interval.length + shape.push_events,
                    shape)


def _frozen_pushes(tenant: Tenant) -> int:
    """Pushes' worth of events in one interval of *tenant*."""
    return tenant.config.interval.length // tenant.push_events


def _reset(tenants: Sequence[Tenant]) -> None:
    for tenant in tenants:
        tenant.pushes = 0
        tenant.requests = 0


def _check(tenants: Sequence[Tenant], digests: Dict[str, str]) -> List[str]:
    """Tenants whose final profile differs from the scalar reference."""
    return [tenant.name for tenant in tenants
            if common.reference_digests(
                [tenant.config], tenant.pcs[:tenant.events_fed],
                tenant.values[:tenant.events_fed], True)
            != [digests[tenant.name]]]


def run(root: str, shape: ServiceShape, seed: int, seconds: float,
        trace: bool, report) -> None:
    """Run one service workload; record results through *report*."""
    pushes = (int(shape.max_events_per_s * seconds / shape.push_events
                  / shape.tenants) + 2 + shape.prefill_pushes)
    tenants = _tenants(seed, range(shape.tenants),
                       pushes * shape.push_events, shape)
    frozen = _frozen(seed, shape)
    if trace:
        _run_traced(root, shape, tenants, frozen, seconds, report)
        return
    with _one_cpu():
        window = _measure(root, shape, tenants, frozen, seconds)
    lanes, rate, setups, peak_kb, digests = window
    if any(lane.exhausted for lane in lanes):
        report.note("a tenant used up its pre-generated stream; the "
                    "window ended early")
    everyone = tenants + frozen
    bad = _check(everyone, digests)
    attempted = sum(tenant.requests for tenant in everyone)
    failed = (sum(lane.failures for lane in lanes)
              + sum(tenant.requests for tenant in everyone
                    if tenant.name in bad))
    report.outcome(attempted, failed, bad)
    report.metric("events_per_s", rate, "events/s")
    report.latencies("push",
                     [record for lane in lanes for record in lane.pushes])
    report.latencies("snapshot",
                     [record for lane in lanes for record in lane.snapshots])
    report.metric("success_rate", (attempted - failed) / attempted,
                  "fraction")
    report.metric("setup_s", float(np.median(setups)), "s",
                  samples=len(setups))
    report.metric("peak_rss_mb", peak_kb / 1024, "MB")


def _measure(root: str, shape: ServiceShape, tenants: List[Tenant],
             frozen: List[Tenant], seconds: float):
    """Set up ``SETUPS`` times, then run the timed window on the last
    server; returns its lanes, the events acknowledged per second, the
    set-up times, the server's peak RSS and the final content digests."""
    setups: List[float] = []
    deployment = None
    try:
        for _ in range(SETUPS):
            if deployment is not None:
                deployment.stop()
                _reset(tenants + frozen)
            deployment = Deployment(root, tenants, frozen)
            setups.append(deployment.setup_seconds)
        deployment.prefill(shape.prefill_pushes)
        lanes = deployment.lanes
        start = time.perf_counter()
        _run_lanes(lanes, _drive, shape.snapshot_every, start + seconds,
                   None, threading.Event(), None)
        rate = common.steady_rate(
            [record for lane in lanes for record in lane.pushes], start)
        peak_kb = deployment.server.peak_rss_kb()
        digests = deployment.close_streams()
    finally:
        if deployment is not None:
            deployment.stop()
    return lanes, rate, setups, peak_kb, digests


def _run_traced(root: str, shape: ServiceShape, tenants: List[Tenant],
                frozen: List[Tenant], seconds: float, report) -> None:
    """Untraced timed window, then a traced replay of the same pushes."""
    everyone = tenants + frozen
    with _one_cpu():
        deployment = Deployment(root, tenants, frozen)
        try:
            deployment.prefill(shape.prefill_pushes)
            untraced = _run_lanes(deployment.lanes, _drive,
                                  shape.snapshot_every,
                                  time.perf_counter() + seconds / 2, None,
                                  threading.Event(), None)
            first = deployment.close_streams()
        finally:
            deployment.stop()
        targets = {tenant.name: tenant.pushes for tenant in tenants}
        _reset(everyone)

        span_dir = tempfile.mkdtemp(prefix=".perfbench-spans-", dir=root)
        tracer = tracing.Tracer()
        patches = tracing.Patches()
        try:
            tracing.install_client(tracer, patches)
            deployment = Deployment(root, tenants, frozen, span_dir)
            try:
                deployment.prefill(shape.prefill_pushes)
                lo = time.perf_counter_ns()
                traced = _run_lanes(deployment.lanes, _drive,
                                    shape.snapshot_every, None, targets,
                                    threading.Event(), tracer)
                hi = time.perf_counter_ns()
                busy = deployment.busy_rejections()
                second = deployment.close_streams()
            finally:
                deployment.stop()
            processes, counts = tracing.load_span_files(span_dir)
        finally:
            patches.restore()
            shutil.rmtree(span_dir, ignore_errors=True)
    processes[os.getpid()] = tracer.spans
    # The benchmark process drives two connections at once, so the
    # single-thread accounting check does not apply to it.
    metrics, failures = tracing.layer_metrics(processes, counts, (lo, hi),
                                              busy)
    bad = _check(everyone, second)
    bad += [name for name, digest in first.items()
            if second[name] != digest and name not in bad]
    attempted = sum(tenant.requests for tenant in everyone)
    failed = (sum(lane.failures for lane in deployment.lanes)
              + sum(tenant.requests for tenant in everyone
                    if tenant.name in bad))
    report.outcome(attempted, failed, bad, failures)
    metrics["trace.overhead"] = traced / untraced - 1
    report.layers(metrics)
