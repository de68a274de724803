"""Tests for the streaming profile service (repro.service).

The load-bearing property is *equivalence*: candidates and error
summaries obtained through the server -- streams pushed in arbitrary
batches, sharded over multiple worker processes -- must be identical to
a direct in-process :class:`ProfilingSession` run over the same events.
Streams are compared via recorded traces because the synthetic
generators' content depends on draw batching; traces pin the exact
event sequence on both sides.
"""

from __future__ import annotations

import os
import signal
import socket
import time

import numpy as np
import pytest

from repro.core import kernels
from repro.core.config import IntervalSpec, ProfilerConfig
from repro.profiling.session import ProfilingSession
from repro.service import (HashRing, ProfileClient, ProfileServer,
                           ProtocolError, ServiceError)
from repro.service import protocol
from repro.service.worker import _Worker
from repro.workloads.benchmarks import benchmark_generator
from repro.workloads.traces import Trace

INTERVAL = IntervalSpec(length=2_000, threshold=0.01)
CONFIG = ProfilerConfig(interval=INTERVAL, total_entries=256,
                        num_tables=4, conservative_update=True)


def make_trace(benchmark: str, seed: int, events: int) -> Trace:
    pcs, values = benchmark_generator(benchmark,
                                      seed=seed).chunk(events)
    return Trace(pcs=pcs, values=values,
                 source=f"benchmark:{benchmark}")


def direct_run(trace: Trace, config: ProfilerConfig = CONFIG):
    return ProfilingSession(config,
                            keep_profiles=True).run(trace).single()


def streams_on_distinct_shards(num_workers: int, count: int):
    """Stream ids guaranteed to land on *count* distinct shards."""
    ring = HashRing(range(num_workers))
    chosen, shards = [], set()
    index = 0
    while len(chosen) < count:
        stream = f"stream-{index}"
        shard = ring.shard_for(stream)
        if shard not in shards or len(shards) >= num_workers:
            chosen.append(stream)
            shards.add(shard)
        index += 1
    return chosen, shards


def assert_matches_direct(snapshot: dict, direct) -> None:
    """Server snapshot == direct in-process run, interval by interval."""
    summary = direct.summary
    assert snapshot["summary"]["num_intervals"] == summary.num_intervals
    assert snapshot["summary"]["net_error_percent"] == pytest.approx(
        summary.percent(), abs=1e-12)
    assert snapshot["summary"]["per_interval_error_percent"] == \
        pytest.approx([100.0 * e for e in summary.series()], abs=1e-12)
    for wire, profile in zip(snapshot["intervals"], direct.profiles):
        assert wire["index"] == profile.index
        assert wire["events_observed"] == profile.events_observed
        candidates = {(pc, value): count
                      for pc, value, count in wire["candidates"]}
        assert candidates == profile.candidates


# ---------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------

class TestProtocol:
    def test_json_frame_round_trip(self):
        frame = protocol.encode_json(protocol.T_OPEN,
                                     {"stream": "s", "config": {}})
        msg_type, length = protocol.decode_header(
            frame[:protocol.HEADER.size])
        assert msg_type == protocol.T_OPEN
        body = protocol.decode_json(frame[protocol.HEADER.size:])
        assert body == {"stream": "s", "config": {}}
        assert length == len(frame) - protocol.HEADER.size

    def test_batch_round_trip(self):
        pcs = np.arange(100, dtype=np.uint64) * 8
        values = np.arange(100, dtype=np.uint64) + (1 << 60)
        frame = protocol.encode_batch("bench-1", pcs, values)
        _, length = protocol.decode_header(frame[:protocol.HEADER.size])
        stream, out_pcs, out_values = protocol.decode_batch(
            frame[protocol.HEADER.size:])
        assert stream == "bench-1"
        np.testing.assert_array_equal(out_pcs, pcs)
        np.testing.assert_array_equal(out_values, values)

    def test_bad_magic_rejected(self):
        frame = bytearray(protocol.encode_json(protocol.T_STATS, {}))
        frame[0] ^= 0xFF
        with pytest.raises(ProtocolError, match="bad magic"):
            protocol.decode_header(bytes(frame[:protocol.HEADER.size]))

    def test_bad_version_rejected(self):
        frame = bytearray(protocol.encode_json(protocol.T_STATS, {}))
        frame[2] = 99
        with pytest.raises(ProtocolError, match="version"):
            protocol.decode_header(bytes(frame[:protocol.HEADER.size]))

    def test_unknown_type_rejected(self):
        header = protocol.HEADER.pack(protocol.MAGIC,
                                      protocol.PROTOCOL_VERSION,
                                      0x7F, 0)
        with pytest.raises(ProtocolError, match="unknown frame type"):
            protocol.decode_header(header)

    def test_oversized_payload_rejected(self):
        header = protocol.HEADER.pack(protocol.MAGIC,
                                      protocol.PROTOCOL_VERSION,
                                      protocol.T_STATS,
                                      protocol.MAX_PAYLOAD + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.decode_header(header)

    def test_batch_size_mismatch_rejected(self):
        frame = protocol.encode_batch(
            "s", np.arange(4, dtype=np.uint64),
            np.arange(4, dtype=np.uint64))
        with pytest.raises(ProtocolError, match="declares"):
            protocol.decode_batch(frame[protocol.HEADER.size:-8])

    def test_non_object_json_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            protocol.decode_json(b"[1, 2]")

    def test_oversized_header_raises_frame_too_large(self):
        header = protocol.HEADER.pack(protocol.MAGIC,
                                      protocol.PROTOCOL_VERSION,
                                      protocol.T_BATCH,
                                      protocol.MAX_PAYLOAD + 7)
        with pytest.raises(protocol.FrameTooLarge) as excinfo:
            protocol.decode_header(header)
        assert excinfo.value.length == protocol.MAX_PAYLOAD + 7
        # The refinement must stay a ProtocolError: generic handlers
        # that predate it keep working.
        assert isinstance(excinfo.value, ProtocolError)

    def test_decode_batch_is_zero_copy(self):
        pcs = np.arange(64, dtype=np.uint64)
        values = pcs + np.uint64(1 << 40)
        payload = protocol.encode_batch(
            "s", pcs, values)[protocol.HEADER.size:]
        _, out_pcs, out_values = protocol.decode_batch(payload)
        assert np.shares_memory(out_pcs, np.frombuffer(payload,
                                                       dtype=np.uint8))
        assert np.shares_memory(out_values, np.frombuffer(payload,
                                                          dtype=np.uint8))

    def test_decode_batch_accepts_memoryview_and_bytearray(self):
        pcs = np.arange(16, dtype=np.uint64)
        payload = protocol.encode_batch(
            "s", pcs, pcs)[protocol.HEADER.size:]
        for buffer in (memoryview(payload), bytearray(payload)):
            stream, out_pcs, out_values = protocol.decode_batch(buffer)
            assert stream == "s"
            np.testing.assert_array_equal(out_pcs, pcs)
            np.testing.assert_array_equal(out_values, pcs)

    def test_coalesced_chunks_frame_equals_concatenated_batch(self):
        rng = np.random.default_rng(5)
        chunks = [
            (rng.integers(1 << 48, size=n, dtype=np.uint64),
             rng.integers(1 << 48, size=n, dtype=np.uint64))
            for n in (100, 1, 57)]
        coalesced = protocol.encode_batch_chunks("s", chunks)
        merged = protocol.encode_batch(
            "s", np.concatenate([pcs for pcs, _ in chunks]),
            np.concatenate([values for _, values in chunks]))
        assert coalesced == merged

    def test_parse_batch_header_matches_decode(self):
        pcs = np.arange(32, dtype=np.uint64)
        payload = protocol.encode_batch(
            "tenant-9", pcs, pcs)[protocol.HEADER.size:]
        stream, count, body_start = protocol.parse_batch_header(payload)
        assert (stream, count) == ("tenant-9", 32)
        via_offset = np.frombuffer(payload, dtype=protocol.WIRE_DTYPE,
                                   count=count, offset=body_start)
        np.testing.assert_array_equal(via_offset, pcs)

    def test_empty_chunk_list_rejected_by_stream_check(self):
        # Zero chunks encode as a zero-event batch -- legal on the
        # wire, matching an empty encode_batch.
        frame = protocol.encode_batch_chunks("s", [])
        stream, out_pcs, _ = protocol.decode_batch(
            frame[protocol.HEADER.size:])
        assert stream == "s" and len(out_pcs) == 0


# ---------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------

class TestHashRing:
    def test_deterministic_across_instances(self):
        streams = [f"s{i}" for i in range(200)]
        first = [HashRing(range(4)).shard_for(s) for s in streams]
        second = [HashRing(range(4)).shard_for(s) for s in streams]
        assert first == second

    def test_uses_every_shard(self):
        ring = HashRing(range(4))
        spread = ring.spread([f"s{i}" for i in range(400)])
        assert all(count > 0 for count in spread.values())

    def test_resharding_moves_few_streams(self):
        streams = [f"s{i}" for i in range(1000)]
        before = HashRing(range(4))
        after = HashRing(range(5))
        moved = sum(before.shard_for(s) != after.shard_for(s)
                    for s in streams)
        # A modulo split would move ~4/5 of the streams; consistent
        # hashing should move roughly 1/5.
        assert moved < len(streams) // 2


# ---------------------------------------------------------------------
# Worker (in-process unit tests, no multiprocessing)
# ---------------------------------------------------------------------

class TestWorker:
    def _open(self, worker, stream="s1"):
        reply = worker.open({"stream": stream,
                             "config": CONFIG.to_dict()})
        assert reply["ok"], reply
        return reply

    def test_open_twice_fails(self):
        worker = _Worker(0, snapshot_intervals=8)
        self._open(worker)
        reply = worker.open({"stream": "s1",
                             "config": CONFIG.to_dict()})
        assert not reply["ok"] and reply["code"] == "stream-exists"

    def test_batch_unknown_stream_fails(self):
        worker = _Worker(0, snapshot_intervals=8)
        reply = worker.batch({"stream": "nope", "pcs": b"",
                              "values": b""})
        assert not reply["ok"] and reply["code"] == "unknown-stream"

    def test_bad_config_reported(self):
        reply = _Worker(0, 8).open({"stream": "s",
                                    "config": {"num_tables": 3}})
        assert not reply["ok"] and reply["code"] == "bad-config"

    def test_drain_flushes_open_interval(self):
        worker = _Worker(0, snapshot_intervals=8)
        self._open(worker)
        trace = make_trace("li", seed=3,
                           events=INTERVAL.length + 500)
        worker.batch({"stream": "s1",
                      "pcs": trace.pcs.tobytes(),
                      "values": trace.values.tobytes()})
        reply = worker.drain()
        assert reply["ok"] and reply["drained"] == ["s1"]
        final = worker.finished["s1"]
        assert final["flushed_partial"]
        assert final["summary"]["num_intervals"] == 2
        assert final["intervals"][-1]["events_observed"] == 500

    def test_stats_tracks_streams(self):
        worker = _Worker(3, snapshot_intervals=8)
        self._open(worker)
        trace = make_trace("li", seed=4, events=3000)
        worker.batch({"stream": "s1",
                      "pcs": trace.pcs.tobytes(),
                      "values": trace.values.tobytes()})
        stats = worker.stats()["stats"]
        assert stats["worker"] == 3
        assert stats["events"] == 3000
        assert stats["streams"]["s1"]["intervals_completed"] == 1
        assert stats["streams"]["s1"]["pending_events"] == 1000
        assert stats["events_per_second"] > 0


# ---------------------------------------------------------------------
# End-to-end server tests
# ---------------------------------------------------------------------

class TestServer:
    def test_equivalence_across_shards_and_streams(self):
        """The acceptance bar: two streams on two shards, pushed in
        interleaved odd-sized batches from two concurrent client
        connections, must match direct in-process runs exactly."""
        streams, shards = streams_on_distinct_shards(2, 2)
        traces = {
            streams[0]: make_trace("li", seed=11,
                                   events=3 * INTERVAL.length),
            streams[1]: make_trace("gcc", seed=12,
                                   events=3 * INTERVAL.length),
        }
        direct = {stream: direct_run(trace)
                  for stream, trace in traces.items()}
        with ProfileServer(num_workers=2) as server:
            assert len(shards) == 2
            clients = {stream: ProfileClient(port=server.port)
                       for stream in streams}
            try:
                for stream, client in clients.items():
                    client.open_stream(stream, CONFIG)
                # Interleave batches of coprime sizes across streams.
                cursors = {stream: 0 for stream in streams}
                batch = {streams[0]: 700, streams[1]: 1234}
                while any(cursors[s] < len(traces[s]) for s in streams):
                    for stream in streams:
                        start = cursors[stream]
                        if start >= len(traces[stream]):
                            continue
                        stop = start + batch[stream]
                        trace = traces[stream]
                        clients[stream].push(
                            stream, trace.pcs[start:stop],
                            trace.values[start:stop])
                        cursors[stream] = stop
                for stream, client in clients.items():
                    live = client.snapshot(stream)
                    assert live["intervals_completed"] == 3
                    final = client.close_stream(stream)
                    assert final["final"]
                    assert not final["flushed_partial"]
                    assert_matches_direct(final, direct[stream])
            finally:
                for client in clients.values():
                    client.close()

    def test_graceful_close_flushes_final_open_interval(self):
        trace = make_trace("li", seed=21,
                           events=2 * INTERVAL.length + 750)
        whole = direct_run(trace)  # 2 full intervals, tail discarded
        with ProfileServer(num_workers=2) as server:
            with ProfileClient(port=server.port) as client:
                client.open_stream("flush-me", CONFIG)
                client.push_trace("flush-me", trace, batch_events=997)
                final = client.close_stream("flush-me")
        assert final["flushed_partial"]
        assert final["summary"]["num_intervals"] == 3
        assert final["intervals"][-1]["events_observed"] == 750
        # The full intervals are unaffected by the flush.
        assert final["summary"]["per_interval_error_percent"][:2] == \
            pytest.approx([100.0 * e for e in whole.summary.series()],
                          abs=1e-12)

    def test_snapshot_after_close_is_retained(self):
        trace = make_trace("li", seed=22, events=INTERVAL.length)
        with ProfileServer(num_workers=1) as server:
            with ProfileClient(port=server.port) as client:
                client.open_stream("s", CONFIG)
                client.push_trace("s", trace)
                client.close_stream("s")
                late = client.snapshot("s")
                assert late["final"]
                assert late["summary"]["num_intervals"] == 1

    def test_server_drain_on_stop_shuts_workers_down(self):
        server = ProfileServer(num_workers=2)
        server.start()
        client = ProfileClient(port=server.port)
        client.open_stream("open-at-shutdown", CONFIG)
        client.push("open-at-shutdown",
                    *benchmark_generator("li", seed=5).chunk(500))
        client.close()
        server.stop()
        assert all(not handle.process.is_alive()
                   for handle in server._workers)

    def test_unknown_stream_errors(self):
        with ProfileServer(num_workers=1) as server:
            with ProfileClient(port=server.port) as client:
                with pytest.raises(ServiceError) as exc:
                    client.snapshot("never-opened")
                assert exc.value.code == "unknown-stream"

    def test_open_twice_errors(self):
        with ProfileServer(num_workers=1) as server:
            with ProfileClient(port=server.port) as client:
                client.open_stream("dup", CONFIG)
                with pytest.raises(ServiceError) as exc:
                    client.open_stream("dup", CONFIG)
                assert exc.value.code == "stream-exists"

    def test_malformed_frame_answered_and_connection_dropped(self):
        with ProfileServer(num_workers=1) as server:
            with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=10) as raw:
                raw.sendall(b"\x00" * protocol.HEADER.size)
                reply = raw.recv(65536)
                msg_type, _ = protocol.decode_header(
                    reply[:protocol.HEADER.size])
                assert msg_type == protocol.T_ERROR
                body = protocol.decode_json(
                    reply[protocol.HEADER.size:])
                assert body["code"] == "protocol"
                assert raw.recv(1) == b""  # server hung up

    def test_stats_cover_server_and_workers(self):
        with ProfileServer(num_workers=2) as server:
            with ProfileClient(port=server.port) as client:
                client.open_stream("stat-stream", CONFIG)
                client.push("stat-stream",
                            *benchmark_generator("li",
                                                 seed=6).chunk(4096))
                stats = client.server_stats()
        assert stats["server"]["num_workers"] == 2
        assert stats["server"]["streams_open"] == 1
        assert stats["server"]["frames"] >= 3
        assert len(stats["workers"]) == 2
        assert sum(w.get("events", 0) for w in stats["workers"]) == 4096

    def test_smoke_push_benchmark_stream(self):
        """CI smoke: start a server, push one benchmark stream,
        assert a non-empty snapshot comes back."""
        with ProfileServer(num_workers=2) as server:
            with ProfileClient(port=server.port) as client:
                client.open_stream("smoke", CONFIG)
                client.push_generator(
                    "smoke", benchmark_generator("gcc", seed=1),
                    events=3 * INTERVAL.length, batch_events=4096)
                snapshot = client.snapshot("smoke")
        assert snapshot["intervals_completed"] == 3
        assert snapshot["intervals"]
        assert snapshot["intervals"][-1]["candidates"]
        assert snapshot["summary"]["num_intervals"] == 3


# ---------------------------------------------------------------------
# A dead shard and the path each stream runs on
# ---------------------------------------------------------------------

class TestFailures:
    def test_killed_worker_fails_fast_and_the_other_shard_serves(self):
        (victim, survivor), shards = streams_on_distinct_shards(2, 2)
        assert len(shards) == 2
        events = benchmark_generator("li", seed=7).chunk(500)
        with ProfileServer(num_workers=2) as server:
            with ProfileClient(port=server.port, timeout=10) as client:
                client.open_stream(victim, CONFIG)
                client.open_stream(survivor, CONFIG)
                handle = server._workers[server._ring.shard_for(victim)]
                os.kill(handle.process.pid, signal.SIGKILL)
                started = time.monotonic()
                with pytest.raises(ServiceError) as lost:
                    client.push(victim, *events)
                assert lost.value.code == "worker-lost"
                assert time.monotonic() - started < 2.0
                # Later requests routed to the dead shard fail at once.
                with pytest.raises(ServiceError) as again:
                    client.snapshot(victim)
                assert again.value.code == "worker-lost"
                client.push(survivor, *events)
                assert client.snapshot(survivor)["events"] == len(events[0])
                stats = client.server_stats()
        assert stats["server"]["workers_lost"] == 1
        by_worker = {entry["worker"]: entry for entry in stats["workers"]}
        assert by_worker[handle.worker_id] == {
            "worker": handle.worker_id, "lost": True}
        assert by_worker[1 - handle.worker_id]["events"] == len(events[0])
        # Leaving the with block ran server.stop(), which returned.

    @staticmethod
    def open_push_stats():
        """The backend an ``auto`` stream reports in its open reply, its
        snapshot and ``T_STATS``."""
        with ProfileServer(num_workers=1) as server:
            with ProfileClient(port=server.port) as client:
                opened = client.open_stream("auto", CONFIG)
                client.push("auto",
                            *benchmark_generator("li", seed=3).chunk(300))
                snapshot = client.snapshot("auto")
                stats = client.server_stats()
        return (opened["backend"], snapshot["backend"],
                stats["workers"][0]["streams"]["auto"]["backend"])

    def test_auto_stream_reports_scalar_without_the_kernel(
            self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setenv("CC", "false")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(kernels, "_LOADED", None)
        assert self.open_push_stats() == ("scalar",) * 3

    def test_auto_stream_reports_vectorized_with_the_kernel(
            self, monkeypatch, compiled_kernel):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert self.open_push_stats() == ("vectorized",) * 3


# ---------------------------------------------------------------------
# Data-plane edges: oversized frames, partial reads, plane parity
# ---------------------------------------------------------------------

def _recv_frame(raw: socket.socket):
    """Read one frame off a raw socket; returns (msg_type, body)."""
    data = b""
    while len(data) < protocol.HEADER.size:
        piece = raw.recv(protocol.HEADER.size - len(data))
        assert piece, "server closed mid-header"
        data += piece
    msg_type, length = protocol.decode_header(data)
    payload = b""
    while len(payload) < length:
        piece = raw.recv(length - len(payload))
        assert piece, "server closed mid-payload"
        payload += piece
    return msg_type, protocol.decode_json(payload)


class TestDataPlaneEdges:
    def test_oversized_frame_gets_clean_error_and_connection_survives(
            self, monkeypatch):
        stats_frame = protocol.encode_json(protocol.T_STATS, {})
        monkeypatch.setattr(protocol, "MAX_PAYLOAD", 8192)
        length = 16384  # over the patched limit; actually sent
        oversized = protocol.HEADER.pack(
            protocol.MAGIC, protocol.PROTOCOL_VERSION,
            protocol.T_BATCH, length) + b"\x00" * length
        with ProfileServer(num_workers=1) as server:
            with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=10) as raw:
                raw.sendall(oversized)
                msg_type, body = _recv_frame(raw)
                assert msg_type == protocol.T_ERROR
                assert body["code"] == "oversized"
                # The stream stayed in sync: the same connection still
                # serves well-formed requests.
                raw.sendall(stats_frame)
                msg_type, body = _recv_frame(raw)
                assert msg_type == protocol.T_OK
                assert body["server"]["protocol_errors"] == 1

    @pytest.mark.parametrize("piece", [1, 3, 7])
    def test_split_byte_feeds_parse_at_every_boundary(self, piece):
        """Frames delivered *piece* bytes at a time -- partial reads at
        every header and payload boundary -- must parse identically."""
        pcs = np.arange(100, dtype=np.uint64)
        wire = (protocol.encode_json(
                    protocol.T_OPEN,
                    {"stream": "drip", "config": CONFIG.to_dict()})
                + protocol.encode_batch("drip", pcs, pcs)
                + protocol.encode_json(protocol.T_SNAPSHOT,
                                       {"stream": "drip"}))
        with ProfileServer(num_workers=1) as server:
            with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=10) as raw:
                replies = []
                sent = 0
                # Interleave sends and reads: the server replies per
                # frame, so drain replies as frames complete.
                raw.settimeout(10)
                for start in range(0, len(wire), piece):
                    raw.sendall(wire[start:start + piece])
                for _ in range(3):
                    replies.append(_recv_frame(raw))
        assert [msg_type for msg_type, _ in replies] == \
            [protocol.T_OK] * 3
        snapshot = replies[2][1]["snapshot"]
        assert snapshot["events"] == 100

    def test_client_reads_dribbled_replies(self):
        """The client's recv_into loop must survive 1-byte reads."""
        reply = protocol.encode_json(protocol.T_OK, {"ok": True,
                                                     "n": 7})

        class DripSocket:
            def __init__(self, data: bytes) -> None:
                self.data = data
                self.offset = 0

            def recv_into(self, view) -> int:
                if self.offset >= len(self.data):
                    return 0
                view[0:1] = self.data[self.offset:self.offset + 1]
                self.offset += 1
                return 1

            def sendall(self, data: bytes) -> None:
                pass

        client = ProfileClient.__new__(ProfileClient)
        client._recv_buffer = bytearray(4)  # forces regrowth too
        client._socket = DripSocket(reply)
        body = client._request(b"")
        assert body == {"ok": True, "n": 7}

    @pytest.mark.parametrize("data_plane", ["legacy", "fast"])
    def test_both_planes_match_direct_run(self, data_plane):
        trace = make_trace("gcc", seed=21, events=3 * INTERVAL.length)
        direct = direct_run(trace)
        with ProfileServer(num_workers=2,
                           data_plane=data_plane) as server:
            with ProfileClient(port=server.port) as client:
                client.open_stream("plane", CONFIG)
                client.push_trace("plane", trace, batch_events=777)
                snapshot = client.close_stream("plane")
        assert_matches_direct(snapshot, direct)

    def test_coalesced_push_matches_single_frames(self):
        trace = make_trace("li", seed=22, events=3 * INTERVAL.length)
        snapshots = {}
        for label, coalesce in (("single", 1), ("coalesced", 6)):
            with ProfileServer(num_workers=1) as server:
                with ProfileClient(port=server.port) as client:
                    client.open_stream("c", CONFIG)
                    client.push_trace("c", trace, batch_events=512,
                                      coalesce=coalesce)
                    snapshots[label] = client.close_stream("c")
        for snapshot in snapshots.values():
            snapshot.pop("batches", None)  # framing-dependent by design
        assert snapshots["single"] == snapshots["coalesced"]

    def test_grouped_ops_preserve_per_stream_order(self):
        """Many tenants multiplexed on one connection down the fast
        plane (grouped queue handoff) still apply each stream's
        batches in order: every stream matches its direct run."""
        streams = [f"order-{i}" for i in range(6)]
        traces = {stream: make_trace("gcc", seed=30 + i,
                                     events=2 * INTERVAL.length)
                  for i, stream in enumerate(streams)}
        direct = {stream: direct_run(trace)
                  for stream, trace in traces.items()}
        with ProfileServer(num_workers=2, data_plane="fast") as server:
            with ProfileClient(port=server.port) as client:
                for stream in streams:
                    client.open_stream(stream, CONFIG)
                for offset in range(0, 2 * INTERVAL.length, 500):
                    for stream in streams:
                        trace = traces[stream]
                        client.push(stream,
                                    trace.pcs[offset:offset + 500],
                                    trace.values[offset:offset + 500])
                for stream in streams:
                    assert_matches_direct(client.close_stream(stream),
                                          direct[stream])


# ---------------------------------------------------------------------
# Feeder equivalence (the property the service is built on)
# ---------------------------------------------------------------------

class TestFeederEquivalence:
    @pytest.mark.parametrize("batch_events", [1, 357, 2_000, 4_999,
                                              10_000])
    def test_any_batching_matches_run(self, batch_events):
        trace = make_trace("m88ksim", seed=31,
                           events=4 * INTERVAL.length)
        expected = direct_run(trace)
        session = ProfilingSession(CONFIG, keep_profiles=True)
        feeder = session.feeder()
        for start in range(0, len(trace), batch_events):
            stop = start + batch_events
            feeder.feed(trace.pcs[start:stop],
                        trace.values[start:stop])
        result = feeder.finish().single()
        assert result.summary.percent() == expected.summary.percent()
        assert [p.candidates for p in result.profiles] == \
            [p.candidates for p in expected.profiles]

    def test_trim_bounds_profiles_keeps_summary(self):
        trace = make_trace("li", seed=32, events=5 * INTERVAL.length)
        session = ProfilingSession(CONFIG, keep_profiles=True)
        feeder = session.feeder()
        feeder.feed(trace.pcs, trace.values)
        feeder.trim(2)
        result = feeder.snapshot().single()
        assert len(result.profiles) == 2
        assert result.profiles[-1].index == 4
        assert result.summary.num_intervals == 5


# ---------------------------------------------------------------------
# Backend parity through the service
# ---------------------------------------------------------------------

class TestBackendParity:
    """The same trace pushed to a scalar and a vectorized stream must
    produce byte-identical snapshots: the kernel parity guarantee has
    to survive the whole wire / worker / feeder pipeline."""

    @pytest.fixture(autouse=True)
    def _needs_kernel(self, compiled_kernel):
        pass

    @staticmethod
    def push_both(trace, config, batch_events):
        with ProfileServer(num_workers=2) as server:
            with ProfileClient(port=server.port) as client:
                for backend in ("scalar", "vectorized"):
                    client.open_stream(backend,
                                       config.with_backend(backend))
                    client.push_trace(backend, trace,
                                      batch_events=batch_events)
                return {backend: client.close_stream(backend)
                        for backend in ("scalar", "vectorized")}

    @staticmethod
    def assert_snapshots_identical(snapshots):
        scalar, vectorized = (snapshots["scalar"],
                              snapshots["vectorized"])
        assert scalar["backend"] == "scalar"
        assert vectorized["backend"] == "vectorized"
        neutral = {"stream", "backend"}
        assert {k: v for k, v in scalar.items() if k not in neutral} \
            == {k: v for k, v in vectorized.items() if k not in neutral}

    def test_snapshots_identical_across_backends(self):
        trace = make_trace("gcc", seed=41,
                           events=2 * INTERVAL.length + 311)
        snapshots = self.push_both(trace, CONFIG, batch_events=997)
        self.assert_snapshots_identical(snapshots)
        assert snapshots["scalar"]["flushed_partial"]

    @pytest.mark.slow
    @pytest.mark.parametrize("num_tables,conservative", [(1, False),
                                                         (4, True)])
    def test_stress_long_stream_parity(self, num_tables, conservative):
        config = ProfilerConfig(interval=INTERVAL, total_entries=256,
                                num_tables=num_tables,
                                retaining=True,
                                conservative_update=conservative)
        trace = make_trace("gcc", seed=42,
                           events=10 * INTERVAL.length)
        snapshots = self.push_both(trace, config, batch_events=1234)
        self.assert_snapshots_identical(snapshots)
        assert snapshots["scalar"]["intervals_completed"] == 10
