"""Shard worker: owns profiling sessions, one process per shard.

A worker is a ``multiprocessing`` process looping over its request
queue.  Each open stream maps to one
:class:`~repro.profiling.session.SessionFeeder` driving a
:class:`~repro.profiling.session.ProfilingSession` through the chunked
path -- event batches arrive as raw ``uint64`` buffers and go straight
into the compiled per-event loop, so the per-event cost is the same as
in process.

The worker also keeps a running stats ledger (events, batches, busy
seconds, per-stream interval counts) that the server polls on demand
over the same request queue -- a "stats channel" multiplexed with the
data plane, which keeps the worker single-threaded and lock-free.

All replies are plain JSON-safe dicts tagged with the request id, so
the server can multiplex many in-flight requests per worker.
"""

from __future__ import annotations

import queue
import signal
import time
from collections import OrderedDict, deque
from typing import Any, Dict, List

import numpy as np

from ..core.batched import BatchedKernelRunner
from ..core.config import ProfilerConfig
from ..profiling.session import ProfilingSession, SessionFeeder, feed_many
from .protocol import batch_arrays

#: Closed-stream snapshots retained for late queries, per worker.
MAX_FINISHED_STREAMS = 128

#: Most ``batch`` requests folded into one worker tick.  Bounds reply
#: latency for the first op of a tick while still advancing every
#: stream a busy shard has pending in one feed.
MAX_BATCH_FOLD = 256


class _StreamState:
    """One open stream: its feeder plus per-stream accounting."""

    def __init__(self, stream: str, config: ProfilerConfig) -> None:
        self.stream = stream
        self.config = config
        self.session = ProfilingSession(config, keep_profiles=True)
        self.feeder: SessionFeeder = self.session.feeder()
        self.batches = 0

    @property
    def backend(self) -> str:
        """The path the stream's profiler was built on."""
        return self.session.profilers[0].backend


def snapshot_dict(state: _StreamState, max_intervals: int,
                  final: bool = False,
                  flushed: bool = False) -> Dict[str, Any]:
    """JSON-safe snapshot of one stream's current results.

    Candidate tuples are reported as ``[pc, value, count]`` triples (the
    hardware profiler's view); the summary carries the paper's net
    error and four-way breakdown over every completed interval.
    """
    view = state.feeder.snapshot()
    result = view.single()
    summary = result.summary
    errors = {e.index: e.total for e in summary.intervals}
    intervals = [
        {
            "index": profile.index,
            "events_observed": profile.events_observed,
            "error_percent": 100.0 * errors.get(profile.index, 0.0),
            "candidates": [[int(pc), int(value), int(count)]
                           for (pc, value), count
                           in sorted(profile.candidates.items(),
                                     key=lambda item: -item[1])],
        }
        for profile in result.profiles[-max_intervals:]
    ]
    return {
        "stream": state.stream,
        "profiler": state.config.label,
        "backend": result.profiler.backend,
        "final": final,
        "flushed_partial": flushed,
        "events": state.feeder.events_fed,
        "pending_events": state.feeder.pending_events,
        "intervals_completed": state.feeder.intervals_completed,
        "batches": state.batches,
        "intervals": intervals,
        "summary": {
            "num_intervals": summary.num_intervals,
            "net_error_percent": summary.percent(),
            "breakdown_percent": summary.breakdown_percent(),
            "per_interval_error_percent": [100.0 * value
                                           for value in summary.series()],
        },
    }


class _Worker:
    """Request-loop state for one shard process."""

    def __init__(self, worker_id: int, snapshot_intervals: int) -> None:
        self.worker_id = worker_id
        self.snapshot_intervals = snapshot_intervals
        self.streams: Dict[str, _StreamState] = {}
        self.finished: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.events = 0
        self.batches = 0
        self.busy_seconds = 0.0
        self.streams_opened = 0
        #: Issues and counts the compiled-loop calls of every tick.
        self.runner = BatchedKernelRunner()
        #: Folded feeds served (each covers >= 1 ``batch`` ops).
        self.ticks = 0

    # -- operations ----------------------------------------------------

    def open(self, message: Dict[str, Any]) -> Dict[str, Any]:
        stream = message["stream"]
        if stream in self.streams:
            return _error(f"stream {stream!r} is already open",
                          "stream-exists")
        try:
            config = ProfilerConfig.from_dict(message["config"])
            state = _StreamState(stream, config)
        except (ValueError, TypeError, KeyError) as error:
            return _error(f"bad profiler config: {error}", "bad-config")
        self.streams[stream] = state
        self.finished.pop(stream, None)
        self.streams_opened += 1
        return {"ok": True, "stream": stream, "shard": self.worker_id,
                "profiler": config.label,
                "backend": state.backend,
                "interval_length": config.interval.length}

    def batch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return self.batch_many([message])[0]

    def batch_many(self, messages: List[Dict[str, Any]]
                   ) -> List[Dict[str, Any]]:
        """Serve several ``batch`` ops as one folded feed (one tick).

        The target streams are fed in turn through :func:`feed_many`,
        one compiled-loop call per interval-bounded piece of each
        stream, every call issued and counted by :attr:`runner`.
        Several ops for one stream are concatenated in arrival order
        (equivalent by the feeder's split-invariance); the stream's
        total ``intervals_closed`` is reported on its last op of the
        tick.  Returns one reply per message, in order.
        """
        replies: List[Dict[str, Any]] = [None] * len(messages)
        op_ids: Dict[str, List[int]] = {}
        order: List[str] = []
        for position, message in enumerate(messages):
            stream = message["stream"]
            if stream not in self.streams:
                replies[position] = _error(
                    f"stream {stream!r} is not open", "unknown-stream")
                continue
            if stream not in op_ids:
                op_ids[stream] = []
                order.append(stream)
            op_ids[stream].append(position)
        items = []
        fed_events: Dict[str, int] = {}
        for stream in order:
            # Zero-copy views over each frame's payload, which the
            # server ships whole.
            arrays = [batch_arrays(messages[i]["buffer"],
                                   messages[i]["count"],
                                   messages[i]["offset"])
                      for i in op_ids[stream]]
            if len(arrays) == 1:
                pcs, values = arrays[0]
            else:
                pcs = np.concatenate([pair[0] for pair in arrays])
                values = np.concatenate([pair[1] for pair in arrays])
            items.append((self.streams[stream].feeder, pcs, values))
            fed_events[stream] = len(pcs)
        if items:
            started = time.perf_counter()
            closed_by_item = feed_many(items, self.runner)
            self.busy_seconds += time.perf_counter() - started
            self.ticks += 1
        else:
            closed_by_item = []
        for stream, closed in zip(order, closed_by_item):
            state = self.streams[stream]
            positions = op_ids[stream]
            state.batches += len(positions)
            self.batches += len(positions)
            self.events += fed_events[stream]
            if closed:
                state.feeder.trim(self.snapshot_intervals)
            for ordinal, position in enumerate(positions):
                replies[position] = {
                    "ok": True, "stream": stream,
                    "events": state.feeder.events_fed,
                    "intervals_completed":
                        state.feeder.intervals_completed,
                    "intervals_closed":
                        closed if ordinal == len(positions) - 1 else 0,
                }
        return replies

    def snapshot(self, message: Dict[str, Any]) -> Dict[str, Any]:
        stream = message["stream"]
        state = self.streams.get(stream)
        if state is None:
            late = self.finished.get(stream)
            if late is not None:
                return {"ok": True, "snapshot": late}
            return _error(f"stream {stream!r} is not open",
                          "unknown-stream")
        return {"ok": True,
                "snapshot": snapshot_dict(state, self.snapshot_intervals)}

    def close(self, message: Dict[str, Any]) -> Dict[str, Any]:
        state = self.streams.pop(message["stream"], None)
        if state is None:
            return _error(f"stream {message['stream']!r} is not open",
                          "unknown-stream")
        return {"ok": True, "snapshot": self._finish(state)}

    def stats(self) -> Dict[str, Any]:
        per_stream = {
            stream: {"events": state.feeder.events_fed,
                     "intervals_completed":
                         state.feeder.intervals_completed,
                     "pending_events": state.feeder.pending_events,
                     "batches": state.batches,
                     "backend": state.backend}
            for stream, state in self.streams.items()}
        busy = self.busy_seconds
        return {"ok": True, "stats": {
            "worker": self.worker_id,
            "events": self.events,
            "batches": self.batches,
            "busy_seconds": busy,
            "events_per_second": (self.events / busy) if busy else 0.0,
            "chunk_latency_ms": (1000.0 * busy / self.batches
                                 if self.batches else 0.0),
            "ticks": self.ticks,
            "kernel_dispatches": self.runner.dispatches,
            "dispatches_per_tick": (self.runner.dispatches / self.ticks
                                    if self.ticks else 0.0),
            "streams_open": len(self.streams),
            "streams_opened": self.streams_opened,
            "streams": per_stream,
        }}

    def drain(self) -> Dict[str, Any]:
        """Flush every open stream's trailing interval (shutdown path)."""
        drained = [self._finish(state)
                   for state in list(self.streams.values())]
        self.streams.clear()
        return {"ok": True, "drained": [d["stream"] for d in drained]}

    # -- helpers -------------------------------------------------------

    def _finish(self, state: _StreamState) -> Dict[str, Any]:
        flushed = state.feeder.flush()
        final = snapshot_dict(state, self.snapshot_intervals,
                              final=True, flushed=flushed)
        self.finished[state.stream] = final
        while len(self.finished) > MAX_FINISHED_STREAMS:
            self.finished.popitem(last=False)
        return final


def _error(message: str, code: str) -> Dict[str, Any]:
    return {"ok": False, "error": message, "code": code}


def worker_main(worker_id: int, requests, replies,
                snapshot_intervals: int) -> None:
    """Process entry point: serve *requests* until a shutdown message.

    *requests* is the shard's request queue and *replies* the sending
    end of its reply pipe.  Every request dict carries ``op`` and
    ``req`` (the correlation id echoed on the reply).  Unknown ops are
    answered with an error rather than crashing the shard.

    The server packs the ops of one event-loop tick into one ``group``
    message per queue put; the group is unpacked onto the backlog in
    order, so one dequeue (one pickle round trip) serves a whole server
    tick.  Folded batch replies likewise travel back as one list per
    send.
    """
    # A terminal ctrl-c signals the whole foreground process group;
    # shutdown is coordinated by the server via the request queue, so
    # the shard must not die out from under it mid-drain.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass
    worker = _Worker(worker_id, snapshot_intervals)
    backlog: "deque[Dict[str, Any]]" = deque()
    while True:
        message = backlog.popleft() if backlog else requests.get()
        op = message.get("op")
        if op == "group":
            # One queue put carrying many ops; unpack in order ahead
            # of anything still on the queue.
            backlog.extendleft(reversed(message.get("ops") or ()))
            continue
        if op == "shutdown":
            reply = worker.drain()
            reply["req"] = message.get("req")
            replies.send(reply)
            break
        if op == "batch":
            # Fold every already-pending batch op into this tick so all
            # the shard's pending streams advance in one feed.  The
            # backlog (unpacked groups) is drained first, then the
            # queue; a non-batch op ends the fold (it is served next
            # iteration, preserving arrival order).
            fold = [message]
            while len(fold) < MAX_BATCH_FOLD:
                if backlog:
                    if backlog[0].get("op") == "batch":
                        fold.append(backlog.popleft())
                        continue
                    break
                try:
                    pending = requests.get_nowait()
                except queue.Empty:
                    break
                pending_op = pending.get("op")
                if pending_op == "group":
                    backlog.extend(pending.get("ops") or ())
                elif pending_op == "batch":
                    fold.append(pending)
                else:
                    backlog.append(pending)
                    break
            try:
                fold_replies = worker.batch_many(fold)
            except Exception as error:  # noqa: BLE001 - shard survives
                fold_replies = [
                    _error(f"worker {worker_id} failed on 'batch': "
                           f"{error}", "worker-error")
                    for _ in fold]
            for folded, reply in zip(fold, fold_replies):
                reply["req"] = folded.get("req")
            # One send answers the whole tick.
            if len(fold_replies) == 1:
                replies.send(fold_replies[0])
            else:
                replies.send(fold_replies)
            continue
        try:
            if op == "open":
                reply = worker.open(message)
            elif op == "snapshot":
                reply = worker.snapshot(message)
            elif op == "close":
                reply = worker.close(message)
            elif op == "stats":
                reply = worker.stats()
            else:
                reply = _error(f"unknown worker op {op!r}", "bad-op")
        except Exception as error:  # noqa: BLE001 - shard must survive
            reply = _error(f"worker {worker_id} failed on {op!r}: "
                           f"{error}", "worker-error")
        reply["req"] = message.get("req")
        replies.send(reply)
