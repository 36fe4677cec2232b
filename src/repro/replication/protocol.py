"""Wire protocol of the replication stream: framed WAL shipping over HTTP.

The writer exposes two endpoints beyond the standard gateway surface:

``GET /replication/snapshot``
    The full serving state as one :mod:`repro.storage.snapshot` document
    (``REPROSNP`` magic, digest-verified), with the graph version it
    captures in the ``X-Repro-Graph-Version`` response header. A replica
    fetches this once to bootstrap, and again whenever the stream tells
    it to resync.
``POST /replication/stream``
    Body ``{"from_version": N}``. The response is a **long-lived chunked
    stream** of frames — the same ``u32 length + u32 crc32 + JSON
    payload`` framing the write-ahead log uses on disk, so a shipped
    record is byte-for-byte the record the writer logged. The connection
    stays open until either side drops; EOF means "re-subscribe from
    your current version".

Frame payloads are JSON objects tagged by ``"type"``:

========== ============================================================
``hello``     first frame; ``version`` is the writer's graph version,
              ``from_version`` echoes the subscription floor
``record``    one WAL record: ``base``, ``version``, ``updates``
``heartbeat`` liveness tick while the log is idle; carries the highest
              ``version`` shipped so far (lag 0 for a caught-up reader)
``resync``    the subscriber's version predates the writer's WAL floor
              (records were folded into a snapshot); refetch the
              snapshot, then re-subscribe
``close``     the writer is draining; reconnect after a backoff
========== ============================================================

:class:`FrameReader` is the consuming side: it wraps any blocking
``read(n)`` source (an :class:`http.client.HTTPResponse` with chunked
decoding, a socket file, a ``BytesIO`` in tests) and yields decoded
payloads, verifying each frame's CRC as it goes.
"""

from __future__ import annotations

import io
import json
from typing import IO, Iterator, Optional

from repro.errors import ReproError
from repro.storage.wal import WalCorruptError, WalRecord, iter_frames, pack_frame

__all__ = [
    "CLOSE",
    "FrameError",
    "FrameReader",
    "HEARTBEAT",
    "HELLO",
    "MIN_VERSION_HEADER",
    "RECORD",
    "RESYNC",
    "SNAPSHOT_PATH",
    "STREAM_PATH",
    "decode_frame",
    "encode_frame",
    "record_frame",
    "record_from_frame",
]

#: Writer endpoint shipping the full snapshot document.
SNAPSHOT_PATH = "/replication/snapshot"
#: Writer endpoint serving the framed WAL stream (POST, long-lived).
STREAM_PATH = "/replication/stream"
#: Request header carrying a client's read-your-writes floor; the router
#: routes the read to a replica whose version is at least this (or waits,
#: bounded by its deadline). Plain gateways ignore it.
MIN_VERSION_HEADER = "X-Repro-Min-Version"

#: Frame type tags (the ``"type"`` field of every frame payload).
HELLO = "hello"
RECORD = "record"
HEARTBEAT = "heartbeat"
RESYNC = "resync"
CLOSE = "close"


class FrameError(ReproError):
    """The stream produced bytes that do not decode as a valid frame."""


def encode_frame(payload: dict) -> bytes:
    """Frame one JSON payload: ``u32 length + u32 crc32 + bytes``."""
    return pack_frame(payload)


def decode_frame(raw: bytes) -> dict:
    """Decode one complete frame (header + payload); the payload dict back.

    The inverse of :func:`encode_frame` for tests and tools; streaming
    consumers use :class:`FrameReader`, which reads incrementally.
    """
    payload = FrameReader(io.BytesIO(raw)).frame()
    if payload is None:
        raise FrameError("no frame to decode: the input is empty")
    return payload


def _decode_payload(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        raise FrameError(f"frame payload is not a typed object: {obj!r}")
    return obj


def record_frame(record: WalRecord) -> bytes:
    """Encode one WAL record as a ``record`` frame."""
    payload = record.to_payload()
    payload["type"] = RECORD
    return encode_frame(payload)


def record_from_frame(frame: dict) -> WalRecord:
    """Rebuild the :class:`~repro.storage.wal.WalRecord` of a ``record`` frame."""
    if frame.get("type") != RECORD:
        raise FrameError(f"expected a {RECORD!r} frame, got {frame.get('type')!r}")
    body = {key: value for key, value in frame.items() if key != "type"}
    return WalRecord.from_payload(body)


class FrameReader:
    """Incremental frame decoder over a blocking ``read(n)`` source.

    ``read`` may return short — the reader loops until each frame is
    complete. A clean EOF **between** frames ends iteration; EOF inside
    a frame raises :class:`FrameError` (the stream was torn mid-frame).
    """

    def __init__(self, fp: IO[bytes]) -> None:
        self._payloads = iter_frames(fp.read)

    def frame(self) -> Optional[dict]:
        """The next frame's payload, or ``None`` on a clean end-of-stream."""
        try:
            payload = next(self._payloads, None)
        except WalCorruptError as exc:
            raise FrameError(str(exc)) from exc
        return None if payload is None else _decode_payload(payload)

    def frames(self) -> Iterator[dict]:
        """Yield decoded payloads until the stream ends cleanly."""
        return iter(self.frame, None)

    def __iter__(self) -> Iterator[dict]:
        return self.frames()
