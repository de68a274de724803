"""Wire protocol of the profile service.

Every message is one *frame*::

    +-------+---------+------+----------------+---------·········--+
    | magic | version | type | payload length |      payload       |
    | u16   | u8      | u8   | u32            | length bytes       |
    +-------+---------+------+----------------+---------·········--+

All integers are big-endian.  Control messages (open/close/snapshot/
stats and their replies) carry a UTF-8 JSON object as payload.  Event
batches (:data:`T_BATCH`) carry a small JSON header followed by the raw
little-endian ``uint64`` PC and value arrays::

    +-----------+--------·····-+------·····---+--------·····--+
    | headerlen | JSON header  | pcs bytes    | values bytes  |
    | u32       |              | count * 8    | count * 8     |
    +-----------+--------·····-+------·····---+--------·····--+

where the JSON header is ``{"stream": <id>, "count": <events>}``.
Arrays travel as raw bytes so a batch costs 16 bytes/event plus a
constant -- no per-event encoding on either side; both ends hand the
buffers straight to numpy.

A batch may be assembled from several generation chunks
(:func:`encode_batch_chunks`): the chunks' PC arrays are laid out back
to back, then their value arrays, and the frame is indistinguishable
from a single-chunk batch of the concatenated events.  This is the
client's *coalescing* fast path -- the feeder's split-invariance
guarantees the profile is identical however events are framed, so the
client can amortize one request/reply round trip over many generation
chunks without changing a single result bit.

Decoding is zero-copy: :func:`parse_batch_header` validates a batch
payload and returns array offsets into it, and :func:`decode_batch`
builds ``numpy`` views over the payload buffer (``bytes``,
``bytearray`` or ``memoryview``) without copying the event arrays.

Malformed input (bad magic, unknown version, oversized or truncated
payloads, inconsistent batch sizes, invalid JSON) raises
:class:`ProtocolError`; the server answers with a :data:`T_ERROR`
frame where the stream is still framed, and closes the connection
where it is not (a bad magic number means the byte stream can no
longer be trusted).  An oversized-but-well-formed frame raises the
:class:`FrameTooLarge` refinement, which the server recovers from by
draining the declared payload and answering a clean error instead of
hanging up.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np

#: Anything the decoders accept as a payload buffer.
Buffer = Union[bytes, bytearray, memoryview]

#: Frame magic: rejects non-protocol peers immediately.
MAGIC = 0xCAF1

#: Bump on any incompatible frame or payload change.
PROTOCOL_VERSION = 1

#: ``!`` big-endian: magic u16, version u8, type u8, payload length u32.
HEADER = struct.Struct("!HBBI")

#: One u32: length of the JSON header inside a batch payload.
_BATCH_PREFIX = struct.Struct("!I")

#: Upper bound on a single frame payload (64 MiB ~ 4M events/batch).
MAX_PAYLOAD = 64 * 1024 * 1024

#: Wire dtype of the PC/value arrays.
WIRE_DTYPE = np.dtype("<u8")

# Request frame types.
T_OPEN = 0x01      #: open a stream: {"stream", "config"}
T_BATCH = 0x02     #: event batch (binary payload, see module docstring)
T_SNAPSHOT = 0x03  #: live snapshot query: {"stream"}
T_CLOSE = 0x04     #: close a stream (flushes the open interval): {"stream"}
T_STATS = 0x05     #: server + worker statistics: {}

# Reply frame types.
T_OK = 0x10        #: success; JSON payload depends on the request
T_ERROR = 0x11     #: failure: {"error": <message>, "code": <slug>}

_KNOWN_TYPES = frozenset({T_OPEN, T_BATCH, T_SNAPSHOT, T_CLOSE, T_STATS,
                          T_OK, T_ERROR})


class ProtocolError(Exception):
    """The peer sent bytes that are not a valid protocol frame."""


class FrameTooLarge(ProtocolError):
    """A well-formed frame header declares a payload over the limit.

    Unlike other header errors the byte stream is still in sync: the
    magic, version and type all parsed, so a receiver can skip exactly
    ``length`` payload bytes, answer with a framed error, and keep the
    connection.
    """

    def __init__(self, message: str, length: int) -> None:
        super().__init__(message)
        self.length = length


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    """Frame *payload* under *msg_type*."""
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(f"payload of {len(payload)} bytes exceeds "
                            f"the {MAX_PAYLOAD}-byte frame limit")
    return HEADER.pack(MAGIC, PROTOCOL_VERSION, msg_type,
                       len(payload)) + payload


def decode_header(data: Buffer) -> Tuple[int, int]:
    """Parse a frame header into ``(msg_type, payload_length)``."""
    if len(data) != HEADER.size:
        raise ProtocolError(f"short frame header: {len(data)} bytes")
    magic, version, msg_type, length = HEADER.unpack(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic:#06x}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version} "
                            f"(this end speaks {PROTOCOL_VERSION})")
    if msg_type not in _KNOWN_TYPES:
        raise ProtocolError(f"unknown frame type {msg_type:#04x}")
    if length > MAX_PAYLOAD:
        raise FrameTooLarge(
            f"payload length {length} exceeds the "
            f"{MAX_PAYLOAD}-byte frame limit", length)
    return msg_type, length


def encode_json(msg_type: int, body: Dict[str, Any]) -> bytes:
    """Frame a JSON control message."""
    return encode_frame(msg_type,
                        json.dumps(body, separators=(",", ":"))
                        .encode("utf-8"))


def decode_json(payload: Buffer) -> Dict[str, Any]:
    """Parse a JSON control payload, insisting on an object."""
    try:
        if isinstance(payload, memoryview):
            payload = payload.tobytes()
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"invalid JSON payload: {error}") from None
    if not isinstance(body, dict):
        raise ProtocolError(f"JSON payload must be an object, "
                            f"got {type(body).__name__}")
    return body


def encode_batch(stream: str, pcs: np.ndarray,
                 values: np.ndarray) -> bytes:
    """Frame one event batch for *stream*."""
    return encode_batch_chunks(stream, [(pcs, values)])


def encode_batch_chunks(stream: str,
                        chunks: Sequence[Tuple[np.ndarray, np.ndarray]]
                        ) -> bytes:
    """Frame several ``(pcs, values)`` chunks as **one** batch.

    The coalescing fast path: the chunks' PC arrays are written back to
    back, then their value arrays, producing the exact frame a single
    concatenated batch would -- but without materializing the
    concatenated arrays, and with one request/reply round trip instead
    of one per chunk.  Receivers cannot (and need not) tell the
    difference; the feeder's split-invariance makes the profile
    identical either way.
    """
    pieces: List[Tuple[np.ndarray, np.ndarray]] = []
    count = 0
    for pcs, values in chunks:
        pcs = np.ascontiguousarray(pcs, dtype=WIRE_DTYPE)
        values = np.ascontiguousarray(values, dtype=WIRE_DTYPE)
        if pcs.shape != values.shape or pcs.ndim != 1:
            raise ValueError(f"batch arrays must be parallel and 1-D, "
                             f"got shapes {pcs.shape} vs {values.shape}")
        pieces.append((pcs, values))
        count += len(pcs)
    header = json.dumps({"stream": stream, "count": count},
                        separators=(",", ":")).encode("utf-8")
    parts = [_BATCH_PREFIX.pack(len(header)), header]
    parts.extend(pcs.data for pcs, _ in pieces)
    parts.extend(values.data for _, values in pieces)
    payload = b"".join(parts)
    return encode_frame(T_BATCH, payload)


def parse_batch_header(payload: Buffer) -> Tuple[str, int, int]:
    """Validate a batch payload; return ``(stream, count, body_start)``.

    Performs the full wire-level validation of :func:`decode_batch`
    (header bounds, stream id, count consistency) but touches only the
    JSON header -- the event arrays are *not* materialized.  This is
    the server's zero-copy ingest path: the payload buffer travels to
    the owning shard whole, and the worker builds its numpy views with
    ``np.frombuffer(payload, offset=body_start)`` /
    ``offset=body_start + 8 * count`` without any intermediate copy.
    """
    if len(payload) < _BATCH_PREFIX.size:
        raise ProtocolError("batch payload shorter than its header "
                            "length prefix")
    (header_length,) = _BATCH_PREFIX.unpack_from(payload)
    body_start = _BATCH_PREFIX.size + header_length
    if body_start > len(payload):
        raise ProtocolError(f"batch header length {header_length} "
                            f"overruns the payload")
    header = decode_json(payload[_BATCH_PREFIX.size:body_start])
    stream = header.get("stream")
    count = header.get("count")
    if not isinstance(stream, str) or not stream:
        raise ProtocolError("batch header is missing a stream id")
    if not isinstance(count, int) or count < 0:
        raise ProtocolError(f"bad batch event count: {count!r}")
    expected = count * WIRE_DTYPE.itemsize * 2
    if len(payload) - body_start != expected:
        raise ProtocolError(
            f"batch declares {count} events ({expected} array bytes) "
            f"but carries {len(payload) - body_start}")
    return stream, count, body_start


def batch_arrays(payload: Buffer, count: int, body_start: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Zero-copy ``(pcs, values)`` views over a batch payload whose
    header :func:`parse_batch_header` has validated."""
    pcs = np.frombuffer(payload, dtype=WIRE_DTYPE, count=count,
                        offset=body_start)
    values = np.frombuffer(payload, dtype=WIRE_DTYPE, count=count,
                           offset=body_start + count * WIRE_DTYPE.itemsize)
    return pcs, values


def decode_batch(payload: Buffer) -> Tuple[str, np.ndarray, np.ndarray]:
    """Parse a batch payload into ``(stream, pcs, values)``.

    The returned arrays are zero-copy views over *payload*.
    """
    stream, count, body_start = parse_batch_header(payload)
    return (stream, *batch_arrays(payload, count, body_start))
