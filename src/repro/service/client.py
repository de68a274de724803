"""Blocking client for the profile service.

One :class:`ProfileClient` wraps one TCP connection.  Requests are
strictly ordered on a connection (the server replies before reading the
next frame), so a client streaming one stream's batches gets the same
interval boundaries as an in-process session run -- batches cannot
overtake each other.

Beyond raw array pushes the client knows the repository's sources: it
can stream a recorded :class:`~repro.workloads.traces.Trace` or a
calibrated benchmark generator in fixed-size batches, which is what the
``repro-profile push`` subcommand uses.

Transient ``busy`` replies (the shard is at its in-flight bound --
the server's backpressure signal) are retried with exponential backoff; every other
error reply raises :class:`ServiceError`.

The push helpers can *coalesce*: frame several generation chunks (or
array slices) into one batch frame via
:func:`~repro.service.protocol.encode_batch_chunks`, paying one
request/reply round trip for many chunks.  The chunk pattern fed to
the profiler is unchanged (the feeder is split-invariant), so results
are byte-identical at any coalescing factor.  Replies are received
into a reusable buffer (``recv_into``), so steady-state reads allocate
nothing.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import ProfilerConfig
from ..workloads.traces import Trace
from . import protocol
from .protocol import ProtocolError

#: Default events per pushed batch.
DEFAULT_BATCH_EVENTS = 8192

#: Default generation chunks coalesced into one frame by the push
#: helpers when the caller does not choose a factor.
DEFAULT_COALESCE = 1

#: Backoff schedule for ``busy`` replies: base delay and retry cap.
BUSY_BASE_DELAY = 0.02
BUSY_RETRIES = 8


class ServiceError(Exception):
    """The server answered with an error reply.

    ``code`` carries the server's machine-readable slug (for example
    ``unknown-stream``, ``busy``, ``bad-config``).
    """

    def __init__(self, message: str, code: str = "error") -> None:
        super().__init__(message)
        self.code = code


class ProfileClient:
    """Blocking connection to a :class:`~repro.service.server.ProfileServer`.

    Usable as a context manager; :meth:`close` only closes the socket,
    it does not close open streams (use :meth:`close_stream`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: float = 30.0) -> None:
        self._socket = socket.create_connection((host, port),
                                                timeout=timeout)
        self.host = host
        self.port = port
        self._recv_buffer = bytearray(64 * 1024)

    # -- stream operations ---------------------------------------------

    def open_stream(self, stream: str,
                    config: Optional[ProfilerConfig] = None
                    ) -> Dict[str, Any]:
        """Open *stream* under *config* (default :class:`ProfilerConfig`)."""
        config = config if config is not None else ProfilerConfig()
        return self._request(protocol.encode_json(
            protocol.T_OPEN,
            {"stream": stream, "config": config.to_dict()}))

    def push(self, stream: str, pcs: np.ndarray,
             values: np.ndarray) -> Dict[str, Any]:
        """Push one event batch; retries while the shard is busy."""
        return self._push_frame(protocol.encode_batch(stream, pcs,
                                                      values))

    def push_chunks(self, stream: str,
                    chunks: Sequence[Tuple[np.ndarray, np.ndarray]]
                    ) -> Dict[str, Any]:
        """Push several ``(pcs, values)`` chunks as **one** batch frame.

        One request/reply round trip covers all the chunks; the
        feeder's split-invariance makes the resulting profile
        identical to pushing them one by one.
        """
        return self._push_frame(
            protocol.encode_batch_chunks(stream, chunks))

    def push_arrays(self, stream: str, pcs: np.ndarray,
                    values: np.ndarray,
                    batch_events: int = DEFAULT_BATCH_EVENTS,
                    coalesce: int = DEFAULT_COALESCE
                    ) -> Dict[str, Any]:
        """Push parallel arrays in *batch_events*-sized batches,
        framing up to *coalesce* batches per request."""
        if batch_events < 1:
            raise ValueError(f"batch_events must be >= 1, "
                             f"got {batch_events}")
        if coalesce < 1:
            raise ValueError(f"coalesce must be >= 1, got {coalesce}")
        reply: Dict[str, Any] = {}
        chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        for start in range(0, len(pcs), batch_events):
            stop = start + batch_events
            chunks.append((pcs[start:stop], values[start:stop]))
            if len(chunks) == coalesce:
                reply = self.push_chunks(stream, chunks)
                chunks = []
        if chunks:
            reply = self.push_chunks(stream, chunks)
        return reply

    def push_trace(self, stream: str, trace: Trace,
                   batch_events: int = DEFAULT_BATCH_EVENTS,
                   coalesce: int = DEFAULT_COALESCE
                   ) -> Dict[str, Any]:
        """Stream a recorded trace, batch by batch."""
        return self.push_arrays(stream, trace.pcs, trace.values,
                                batch_events, coalesce)

    def push_generator(self, stream: str, generator, events: int,
                       batch_events: int = DEFAULT_BATCH_EVENTS,
                       coalesce: int = DEFAULT_COALESCE
                       ) -> Dict[str, Any]:
        """Stream *events* events from a chunked generator.

        *generator* is anything with a ``chunk(count) -> (pcs, values)``
        method (e.g. :class:`~repro.workloads.generators.TupleStreamGenerator`).
        With *coalesce* > 1 that many generation chunks share one frame
        -- the ``chunk()`` call pattern (and so the generated event
        stream and the profile) is identical at any factor.
        """
        if coalesce < 1:
            raise ValueError(f"coalesce must be >= 1, got {coalesce}")
        reply: Dict[str, Any] = {}
        remaining = events
        while remaining > 0:
            chunks: List[Tuple[np.ndarray, np.ndarray]] = []
            while remaining > 0 and len(chunks) < coalesce:
                count = min(remaining, batch_events)
                chunks.append(generator.chunk(count))
                remaining -= count
            reply = self.push_chunks(stream, chunks)
        return reply

    def snapshot(self, stream: str) -> Dict[str, Any]:
        """Live snapshot: completed intervals, candidates, error summary."""
        reply = self._request(protocol.encode_json(
            protocol.T_SNAPSHOT, {"stream": stream}))
        return reply["snapshot"]

    def close_stream(self, stream: str) -> Dict[str, Any]:
        """Close *stream*; the final snapshot includes the flushed
        trailing interval, if one was open."""
        reply = self._request(protocol.encode_json(
            protocol.T_CLOSE, {"stream": stream}))
        return reply["snapshot"]

    def server_stats(self) -> Dict[str, Any]:
        """Server- and worker-level statistics."""
        return self._request(protocol.encode_json(protocol.T_STATS, {}))

    # -- plumbing ------------------------------------------------------

    def close(self) -> None:
        self._socket.close()

    def __enter__(self) -> "ProfileClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _push_frame(self, frame: bytes) -> Dict[str, Any]:
        """Send one batch frame; retries while the shard is busy."""
        delay = BUSY_BASE_DELAY
        for attempt in range(BUSY_RETRIES):
            try:
                return self._request(frame)
            except ServiceError as error:
                if error.code != "busy" or attempt == BUSY_RETRIES - 1:
                    raise
                time.sleep(delay)
                delay *= 2
        raise AssertionError("unreachable")

    def _request(self, frame: bytes) -> Dict[str, Any]:
        self._socket.sendall(frame)
        msg_type, payload = self._read_frame()
        body = protocol.decode_json(payload)
        if msg_type == protocol.T_ERROR:
            raise ServiceError(body.get("error", "unknown error"),
                               body.get("code", "error"))
        if msg_type != protocol.T_OK:
            raise ProtocolError(f"unexpected reply frame type "
                                f"{msg_type:#04x}")
        return body

    def _read_frame(self) -> Tuple[int, memoryview]:
        header = self._recv_exact(protocol.HEADER.size)
        msg_type, length = protocol.decode_header(header)
        return msg_type, self._recv_exact(length)

    def _recv_exact(self, count: int) -> memoryview:
        """Read exactly *count* bytes into the reusable buffer.

        The returned view is only valid until the next call -- callers
        decode it immediately.  ``decode_header`` runs before the
        payload read, so the header/payload sequence in
        :meth:`_read_frame` is safe.
        """
        if len(self._recv_buffer) < count:
            self._recv_buffer = bytearray(
                max(count, 2 * len(self._recv_buffer)))
        view = memoryview(self._recv_buffer)[:count]
        received = 0
        while received < count:
            read = self._socket.recv_into(view[received:])
            if not read:
                raise ConnectionError(
                    "server closed the connection mid-frame")
            received += read
        return view
