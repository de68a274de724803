"""The profile server: asyncio front end over a sharded worker pool.

Architecture::

    clients --TCP--> asyncio accept loop --bounded mp queues--> workers
                         (routing, backpressure)                 (sessions)

* Each accepted connection is one coroutine reading frames in order;
  a frame's reply is awaited before the next frame is read, so one
  stream's batches are applied in arrival order.
* Stream ids are routed to workers with a consistent-hash ring
  (:class:`~repro.service.routing.HashRing`); one worker owns all of a
  stream's state.
* Backpressure is end-to-end: each worker bounds its in-flight
  requests (``max_pending``); at the bound the server answers ``busy``
  instead of buffering without limit, and the client backs off.  On the
  reply side, a client that stops reading is shed: if its socket
  buffer stays full past ``drain_timeout`` the connection is closed.
* The data plane has two selectable paths (``data_plane=``).  The
  default ``"fast"`` path validates a batch frame's header only and
  ships the whole payload buffer to the owning shard (no per-array
  copies), packs every op submitted in one event-loop tick into a
  single ``group`` queue put per worker, and receives folded replies
  as one list per read of the worker's reply pipe.  ``"legacy"``
  reproduces the pre-rewrite plane -- per-op bounded-queue puts with
  the event arrays copied out of each frame -- and exists so the load
  harness can measure one against the other in the same binary.
* An oversized-but-well-formed frame is answered with a framed
  ``oversized`` error after draining its payload; the connection
  survives.  Only unframeable byte streams (bad magic, unknown type)
  drop the connection.
* ``stop()`` drains gracefully: listeners close, every worker flushes
  the open interval of every open stream (so trailing events are
  scored and reported, not dropped), then the processes are joined.
* A worker that dies (killed, out of memory, a fault in the compiled
  loop) fails fast: each request it held, and each later request
  routed to its shard, is answered ``worker-lost``, and ``T_STATS``
  reports the shard as lost.  The other shards keep serving.

The server runs its event loop in a dedicated thread so it can be
embedded (tests, notebooks) or run standalone via the CLI's ``serve``
subcommand.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import queue
import threading
from multiprocessing.connection import wait
from typing import Any, Dict, List, Optional

from . import protocol
from .protocol import ProtocolError
from .routing import HashRing
from .worker import worker_main

#: Default seconds a reply may sit in a slow client's socket buffer
#: before the connection is shed.
DRAIN_TIMEOUT = 10.0

#: Default bound on queued requests per worker.
MAX_PENDING = 64

#: Default per-interval profiles retained per stream for snapshots.
SNAPSHOT_INTERVALS = 64


class WorkerBusy(Exception):
    """The target shard's request queue is full (shed the request)."""


class _WorkerHandle:
    """Server-side endpoint of one worker process.

    Requests are correlated by id; a pump thread moves replies from the
    worker's reply pipe onto the event loop, resolving the matching
    future.  The pump also watches the process sentinel: when the
    worker dies outside :meth:`shutdown`, the handle is :attr:`lost`
    and every request it holds or is given resolves as
    ``worker-lost``.
    """

    def __init__(self, worker_id: int, max_pending: int,
                 snapshot_intervals: int,
                 context: multiprocessing.context.BaseContext,
                 data_plane: str = "fast") -> None:
        self.worker_id = worker_id
        self.data_plane = data_plane
        self.max_pending = max_pending
        # Fast plane: the queue itself is unbounded (one grouped put
        # per tick) and backpressure is enforced on in-flight futures.
        # Legacy plane: the bounded queue is the backpressure.
        maxsize = 0 if data_plane == "fast" else max_pending
        self.requests = context.Queue(maxsize=maxsize)
        self._replies, self._reply_end = context.Pipe(duplex=False)
        self.process = context.Process(
            target=worker_main,
            args=(worker_id, self.requests, self._reply_end,
                  snapshot_intervals),
            name=f"repro-profile-worker-{worker_id}",
            daemon=True)
        self._futures: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._ids = itertools.count()
        self._pump: Optional[threading.Thread] = None
        self._pending: List[Dict[str, Any]] = []
        self._flush_scheduled = False
        #: True once the worker died outside :meth:`shutdown`.
        self.lost = False
        self._closing = False

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self.process.start()
        self._reply_end.close()  # the worker holds the sending end
        self._pump = threading.Thread(target=self._pump_replies,
                                      args=(loop,), daemon=True,
                                      name=f"reply-pump-{self.worker_id}")
        self._pump.start()

    def _pump_replies(self, loop: asyncio.AbstractEventLoop) -> None:
        """Resolve replies until the worker exits; then, unless it was
        shut down, fail everything it held."""
        while True:
            ready = wait([self._replies, self.process.sentinel])
            if self._replies not in ready:
                break  # the worker exited and left no reply unread
            try:
                reply = self._replies.recv()
            except EOFError:
                break
            # A list is one folded tick's replies; resolve them all in
            # one hop onto the event loop.
            batch = reply if isinstance(reply, list) else [reply]
            try:
                loop.call_soon_threadsafe(self._resolve_batch, batch)
            except RuntimeError:
                return  # loop closed mid-shutdown; nothing left to wake
        if self._closing:
            return
        self.lost = True
        # Requests already handed to the dead worker may never leave
        # the queue's buffer; do not let them hold up process exit.
        self.requests.cancel_join_thread()
        try:
            loop.call_soon_threadsafe(self._fail_outstanding)
        except RuntimeError:
            pass

    def _lost_reply(self) -> Dict[str, Any]:
        return {"ok": False, "code": "worker-lost",
                "error": f"worker {self.worker_id} is lost (exit code "
                         f"{self.process.exitcode})"}

    def _fail_outstanding(self) -> None:
        futures, self._futures = self._futures, {}
        self._pending = []
        for future in futures.values():
            if not future.done():
                future.set_result(self._lost_reply())

    def _resolve_batch(self, batch: List[Dict[str, Any]]) -> None:
        for reply in batch:
            future = self._futures.pop(reply.get("req"), None)
            if future is not None and not future.done():
                future.set_result(reply)

    def submit(self, loop: asyncio.AbstractEventLoop,
               message: Dict[str, Any]
               ) -> "asyncio.Future[Dict[str, Any]]":
        """Enqueue *message*; the future resolves with the reply."""
        request_id = next(self._ids)
        message["req"] = request_id
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        if self.lost:
            future.set_result(self._lost_reply())
            return future
        if self.data_plane == "fast":
            if len(self._futures) >= self.max_pending:
                raise WorkerBusy(
                    f"worker {self.worker_id} has "
                    f"{len(self._futures)} requests in flight")
            self._futures[request_id] = future
            self._pending.append(message)
            if not self._flush_scheduled:
                self._flush_scheduled = True
                loop.call_soon(self._flush_pending)
            return future
        self._futures[request_id] = future
        try:
            self.requests.put_nowait(message)
        except queue.Full:
            del self._futures[request_id]
            raise WorkerBusy(
                f"worker {self.worker_id} has "
                f"{self.requests.maxsize} requests pending") from None
        return future

    def _flush_pending(self) -> None:
        """Hand every op submitted this tick to the worker in one put."""
        self._flush_scheduled = False
        pending, self._pending = self._pending, []
        if not pending or self.lost:
            return
        if len(pending) == 1:
            self.requests.put(pending[0])
        else:
            self.requests.put({"op": "group", "ops": pending})

    def shutdown(self, timeout: float = 10.0) -> None:
        """Ask the worker to drain and exit; the pump stops with it."""
        self._closing = True
        if self.process.is_alive():
            try:
                self.requests.put({"op": "shutdown", "req": -1},
                                  timeout=timeout)
            except queue.Full:
                self.process.terminate()
            self.process.join(timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout)
        if self._pump is not None:
            self._pump.join(timeout)


class ProfileServer:
    """Multi-tenant streaming profile server.

    Parameters
    ----------
    host, port:
        Listen address; port 0 binds an ephemeral port (read back from
        :attr:`port` after :meth:`start`).
    num_workers:
        Shard processes; streams are consistent-hashed across them.
    max_pending:
        Bound on queued requests per worker before ``busy`` shedding.
    drain_timeout:
        Seconds a slow client may leave replies unread before its
        connection is closed.
    snapshot_intervals:
        Most recent per-interval profiles retained per stream.
    data_plane:
        ``"fast"`` (default) for zero-copy batch ingest with grouped
        queue handoff, ``"legacy"`` for the pre-rewrite per-op path
        (kept for before/after measurement; results are identical).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 num_workers: int = 2,
                 max_pending: int = MAX_PENDING,
                 drain_timeout: float = DRAIN_TIMEOUT,
                 snapshot_intervals: int = SNAPSHOT_INTERVALS,
                 data_plane: str = "fast") -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, "
                             f"got {num_workers}")
        if data_plane not in ("fast", "legacy"):
            raise ValueError(f"data_plane must be 'fast' or 'legacy', "
                             f"got {data_plane!r}")
        self.host = host
        self.port = port
        self.num_workers = num_workers
        self.drain_timeout = drain_timeout
        self.data_plane = data_plane
        context = multiprocessing.get_context()
        self._workers = [
            _WorkerHandle(worker_id, max_pending, snapshot_intervals,
                          context, data_plane)
            for worker_id in range(num_workers)]
        self._ring = HashRing(range(num_workers))
        self._streams: Dict[str, int] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._ready = threading.Event()
        self._stopping = threading.Event()
        self._stop_event: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None
        self._connection_tasks: "set[asyncio.Task]" = set()
        # Server-level counters (event-loop thread only).
        self._connections_total = 0
        self._connections_active = 0
        self._frames = 0
        self._busy_rejections = 0
        self._slow_client_sheds = 0
        self._protocol_errors = 0

    # -- lifecycle -----------------------------------------------------

    def start(self, timeout: float = 30.0) -> None:
        """Spawn workers, start the loop thread, bind the listener."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._run_loop,
                                        daemon=True,
                                        name="repro-profile-server")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start in time")
        if self._startup_error is not None:
            self.stop()
            raise RuntimeError("server failed to start") \
                from self._startup_error

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            for worker in self._workers:
                worker.start(loop)
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port)
            self.port = self._server.sockets[0].getsockname()[1]
        except BaseException as error:  # surface to start()
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        self._server.close()
        await self._server.wait_closed()
        for task in list(self._connection_tasks):
            task.cancel()
        await asyncio.gather(*self._connection_tasks,
                             return_exceptions=True)

    def stop(self) -> None:
        """Drain and shut down; safe to call from any thread (once)."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if (self._loop is not None and self._stop_event is not None
                and self._loop.is_running()):
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(30.0)
        # Workers flush every open stream's trailing interval on the
        # shutdown message before exiting.
        for worker in self._workers:
            worker.shutdown()
        self._streams.clear()

    def __enter__(self) -> "ProfileServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connection_tasks.add(asyncio.current_task())
        self._connections_total += 1
        self._connections_active += 1
        try:
            while True:
                try:
                    header = await reader.readexactly(
                        protocol.HEADER.size)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                try:
                    msg_type, length = protocol.decode_header(header)
                except protocol.FrameTooLarge as error:
                    # The header parsed, so the stream is still in
                    # sync: skip the declared payload, answer a clean
                    # framed error, and keep serving the connection.
                    self._protocol_errors += 1
                    try:
                        await self._drain_payload(reader, error.length)
                    except (asyncio.IncompleteReadError,
                            ConnectionError):
                        break
                    if not await self._send(writer, protocol.encode_json(
                            protocol.T_ERROR,
                            {"error": str(error), "code": "oversized"})):
                        break
                    continue
                except ProtocolError as error:
                    # The byte stream is out of sync; answer once and
                    # drop the connection.
                    self._protocol_errors += 1
                    await self._send(writer, protocol.encode_json(
                        protocol.T_ERROR,
                        {"error": str(error), "code": "protocol"}))
                    break
                try:
                    payload = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                self._frames += 1
                try:
                    reply = await self._dispatch(msg_type, payload)
                except ProtocolError as error:
                    self._protocol_errors += 1
                    reply = protocol.encode_json(
                        protocol.T_ERROR,
                        {"error": str(error), "code": "protocol"})
                except WorkerBusy as error:
                    self._busy_rejections += 1
                    reply = protocol.encode_json(
                        protocol.T_ERROR,
                        {"error": str(error), "code": "busy"})
                if not await self._send(writer, reply):
                    break
        except asyncio.CancelledError:
            pass  # server shutdown with the connection still open
        finally:
            self._connection_tasks.discard(asyncio.current_task())
            self._connections_active -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _drain_payload(reader: asyncio.StreamReader,
                             length: int) -> None:
        """Discard *length* payload bytes of a rejected frame."""
        remaining = length
        while remaining:
            chunk = await reader.read(min(remaining, 1 << 20))
            if not chunk:
                raise asyncio.IncompleteReadError(b"", remaining)
            remaining -= len(chunk)

    async def _send(self, writer: asyncio.StreamWriter,
                    frame: bytes) -> bool:
        """Write *frame*, shedding the client if it reads too slowly."""
        writer.write(frame)
        try:
            await asyncio.wait_for(writer.drain(), self.drain_timeout)
        except asyncio.TimeoutError:
            self._slow_client_sheds += 1
            return False
        except (ConnectionError, OSError):
            return False
        return True

    # -- request dispatch ----------------------------------------------

    async def _dispatch(self, msg_type: int, payload: bytes) -> bytes:
        loop = asyncio.get_running_loop()
        if msg_type == protocol.T_BATCH:
            if self.data_plane == "fast":
                # Validate the header only and ship the payload whole:
                # the worker builds its numpy views over this buffer,
                # so the event arrays are never copied server-side.
                stream, count, body_start = \
                    protocol.parse_batch_header(payload)
                op = {"op": "batch", "stream": stream,
                      "buffer": payload, "count": count,
                      "offset": body_start}
            else:
                stream, pcs, values = protocol.decode_batch(payload)
                op = {"op": "batch", "stream": stream,
                      "pcs": pcs.tobytes(), "values": values.tobytes()}
            reply = await self._worker_for(stream).submit(loop, op)
            return self._reply_frame(reply)
        body = protocol.decode_json(payload)
        if msg_type == protocol.T_STATS:
            return await self._stats(loop)
        stream = body.get("stream")
        if not isinstance(stream, str) or not stream:
            raise ProtocolError("request is missing a stream id")
        worker = self._worker_for(stream)
        if msg_type == protocol.T_OPEN:
            config = body.get("config")
            if not isinstance(config, dict):
                raise ProtocolError("open request carries no config "
                                    "object")
            reply = await worker.submit(loop, {
                "op": "open", "stream": stream, "config": config})
            if reply.get("ok"):
                self._streams[stream] = worker.worker_id
        elif msg_type == protocol.T_SNAPSHOT:
            reply = await worker.submit(loop, {"op": "snapshot",
                                               "stream": stream})
        elif msg_type == protocol.T_CLOSE:
            reply = await worker.submit(loop, {"op": "close",
                                               "stream": stream})
            self._streams.pop(stream, None)
        else:
            raise ProtocolError(f"frame type {msg_type:#04x} is not a "
                                f"request")
        return self._reply_frame(reply)

    def _worker_for(self, stream: str) -> _WorkerHandle:
        return self._workers[self._ring.shard_for(stream)]

    async def _stats(self, loop: asyncio.AbstractEventLoop) -> bytes:
        futures = []
        for worker in self._workers:
            try:
                futures.append(worker.submit(loop, {"op": "stats"}))
            except WorkerBusy:
                futures.append(None)
        workers: List[Dict[str, Any]] = []
        for worker, future in zip(self._workers, futures):
            if future is None:
                workers.append({"worker": worker.worker_id,
                                "busy": True})
                continue
            reply = await future
            if reply.get("code") == "worker-lost":
                workers.append({"worker": worker.worker_id, "lost": True})
            else:
                workers.append(reply.get("stats", {}))
        body = {
            "server": {
                "host": self.host,
                "port": self.port,
                "num_workers": self.num_workers,
                "data_plane": self.data_plane,
                "connections_total": self._connections_total,
                "connections_active": self._connections_active,
                "frames": self._frames,
                "streams_open": len(self._streams),
                "busy_rejections": self._busy_rejections,
                "slow_client_sheds": self._slow_client_sheds,
                "protocol_errors": self._protocol_errors,
                "workers_lost": sum(worker.lost
                                    for worker in self._workers),
            },
            "workers": workers,
        }
        return protocol.encode_json(protocol.T_OK, body)

    @staticmethod
    def _reply_frame(reply: Dict[str, Any]) -> bytes:
        body = dict(reply)
        body.pop("req", None)
        if body.pop("ok", False):
            return protocol.encode_json(protocol.T_OK, body)
        return protocol.encode_json(protocol.T_ERROR, {
            "error": body.get("error", "unknown worker error"),
            "code": body.get("code", "worker-error")})
