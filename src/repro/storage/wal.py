"""Append-only write-ahead log of :class:`GraphUpdate` batches.

Durability contract: a batch is framed, appended and **fsync'd before the
in-memory apply**, tagged with the graph version the batch will produce.
A process killed at any instant therefore loses at most work it never
acknowledged — on reboot, :meth:`WriteAheadLog.replay_into` re-applies
every logged batch beyond the snapshot and lands on the exact pre-crash
``graph_version``.

Tagging the *resulting* version before applying requires knowing how many
of the batch's updates will be effective (no-ops don't bump the version).
:func:`preview_updates` computes that with a pure overlay simulation —
the graph is not touched — and doubles as up-front validation: a batch
that would raise halfway through (unknown vertex, self-loop, bad label)
is rejected *before* anything hits the log, so the log never contains a
partially-appliable record.

Record framing (little-endian)::

    length  u32   byte length of the JSON payload
    crc32   u32   zlib.crc32 of the payload bytes
    payload       {"base": int, "version": int, "updates": [...]}

``base`` is the graph version the batch was applied at and ``version``
the version it produced; replay uses them to skip records already folded
into a snapshot and to refuse gaps. A crash can tear the final frame;
opening the log detects the torn tail (short frame or CRC mismatch) and
truncates it — every complete record before it was fsync'd and is safe.
A bad frame with valid frames after it is corruption, not a tail, and
opening raises :class:`WalCorruptError` without touching the file.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import (
    Callable,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.profiled_graph import ProfiledGraph
from repro.engine.updates import GraphUpdate, apply_update
from repro.errors import InvalidInputError, ReproError, VertexNotFoundError

Vertex = Hashable
PathLike = Union[str, Path]

_FRAME = struct.Struct("<II")
#: Upper bound on one frame's payload, on disk and on the replication
#: wire; a length past this means the bytes are corrupt (or not frames at
#: all), not a huge batch.
_MAX_FRAME_BYTES = 64 * 1024 * 1024


class WalError(ReproError):
    """The write-ahead log could not be read, written or replayed."""


class WalCorruptError(WalError):
    """A log record before the tail fails structural validation."""


# ----------------------------------------------------------------------
# the frame codec (shared with the replication stream)
# ----------------------------------------------------------------------
def pack_frame(payload: dict) -> bytes:
    """Frame one JSON payload: ``u32 length + u32 crc32 + bytes``."""
    raw = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(raw) > _MAX_FRAME_BYTES:
        raise WalError(
            f"frame payload of {len(raw)} bytes exceeds the "
            f"{_MAX_FRAME_BYTES}-byte frame limit"
        )
    return _FRAME.pack(len(raw), zlib.crc32(raw)) + raw


def _read_exact(read: Callable[[int], bytes], count: int) -> bytes:
    """``count`` bytes from a ``read(n)`` that may return short; fewer only at EOF."""
    chunks = []
    while count > 0:
        chunk = read(count)
        if not chunk:
            break
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def iter_frames(read: Callable[[int], bytes]) -> Iterator[bytes]:
    """Yield each frame's payload bytes from a blocking ``read(n)`` source.

    A clean EOF **between** frames ends iteration; a frame that is cut
    short, announces more than the frame limit or fails its CRC raises
    :class:`WalCorruptError` (on disk that is the torn tail, on the wire
    a broken stream).
    """
    while True:
        header = _read_exact(read, _FRAME.size)
        if not header:
            return
        if len(header) < _FRAME.size:
            raise WalCorruptError(f"frame shorter than its {_FRAME.size}-byte header")
        length, crc = _FRAME.unpack(header)
        if length > _MAX_FRAME_BYTES:
            raise WalCorruptError(f"frame announces {length} bytes — corrupt")
        payload = _read_exact(read, length)
        if len(payload) < length:
            raise WalCorruptError(f"frame announced {length} bytes, got {len(payload)}")
        if zlib.crc32(payload) != crc:
            raise WalCorruptError("frame payload fails its CRC check")
        yield payload


def _frame_follows(fh, offset: int) -> bool:
    """Whether the frame at ``offset`` declares an end that a complete,
    CRC-valid frame follows."""
    fh.seek(offset)
    header = fh.read(_FRAME.size)
    if len(header) < _FRAME.size:
        return False
    fh.seek(offset + _FRAME.size + _FRAME.unpack(header)[0])
    try:
        return next(iter_frames(fh.read), None) is not None
    except WalCorruptError:
        return False


class WalReplayError(WalError):
    """The log does not continue from the graph state being replayed onto."""


class WalRecord:
    """One logged batch: the updates plus its version bracket."""

    __slots__ = ("base", "version", "updates")

    def __init__(
        self, base: int, version: int, updates: Sequence[GraphUpdate]
    ) -> None:
        #: Graph version the batch was applied at.
        self.base = base
        #: Graph version the batch produced (``base`` + effective updates).
        self.version = version
        #: The updates, in application order.
        self.updates: Tuple[GraphUpdate, ...] = tuple(
            GraphUpdate.coerce(u) for u in updates
        )

    def to_payload(self) -> dict:
        """The JSON object framed on disk."""
        return {
            "base": self.base,
            "version": self.version,
            "updates": [u.to_dict() for u in self.updates],
        }

    @classmethod
    def from_payload(cls, obj: object) -> "WalRecord":
        """Rebuild a record from its decoded JSON payload."""
        if (
            not isinstance(obj, dict)
            or not isinstance(obj.get("base"), int)
            or not isinstance(obj.get("version"), int)
            or not isinstance(obj.get("updates"), list)
        ):
            raise WalCorruptError(f"malformed WAL payload: {obj!r}")
        return cls(obj["base"], obj["version"], obj["updates"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WalRecord({self.base}->{self.version}, "
            f"{len(self.updates)} update(s))"
        )


# ----------------------------------------------------------------------
# preview: effective-count + validation without touching the graph
# ----------------------------------------------------------------------
def preview_updates(
    pg: ProfiledGraph, updates: Sequence[GraphUpdate]
) -> Tuple[int, int]:
    """``(effective, resulting_version)`` of applying ``updates`` to ``pg``.

    Pure — ``pg`` is never mutated. Simulates the batch against an overlay
    (vertex presence, edge presence, profiles) with exactly the semantics
    of :func:`repro.engine.updates.apply_update`: ``add_edge`` on an
    existing edge is a no-op, ``remove_vertex`` of an unknown vertex
    raises, ``set_profile`` to the same closure is a no-op, and so on.
    Raises the same exception the real apply would (``VertexNotFoundError``,
    ``InvalidInputError``) so callers can refuse a bad batch *before*
    logging it.
    """
    vstate: dict = {}
    pstate: dict = {}
    estate: dict = {}
    dead: Set[Vertex] = set()  # base edges of these vertices no longer count

    def present(x: Vertex) -> bool:
        if x in vstate:
            return vstate[x]
        return x in pg

    def prof(x: Vertex) -> FrozenSet[int]:
        if x in pstate:
            return pstate[x]
        return pg.labels(x)

    def edge_present(x: Vertex, y: Vertex) -> bool:
        key = (x, y) if repr(x) <= repr(y) else (y, x)
        if key in estate:
            return estate[key]
        if x in dead or y in dead:
            return False
        return pg.graph.has_edge(x, y)

    def set_edge(x: Vertex, y: Vertex, present_now: bool) -> None:
        key = (x, y) if repr(x) <= repr(y) else (y, x)
        estate[key] = present_now

    effective = 0
    for update in updates:
        op = update.op
        if op == "add_edge":
            u, v = update.u, update.v
            if u == v:
                raise InvalidInputError(f"self-loop on vertex {u!r} is not allowed")
            if edge_present(u, v):
                continue
            for w in (u, v):
                if not present(w):
                    vstate[w] = True
                    pstate[w] = frozenset()
            set_edge(u, v, True)
            effective += 1
        elif op == "remove_edge":
            if not edge_present(update.u, update.v):
                continue
            set_edge(update.u, update.v, False)
            effective += 1
        elif op == "add_vertex":
            closed = pg._coerce_profile(update.labels or (), validate=True)
            if present(update.u):
                continue
            vstate[update.u] = True
            pstate[update.u] = closed
            effective += 1
        elif op == "remove_vertex":
            v = update.u
            if not present(v):
                raise VertexNotFoundError(v)
            vstate[v] = False
            pstate[v] = frozenset()
            dead.add(v)
            for key in list(estate):
                if v in key:
                    estate[key] = False
            effective += 1
        elif op == "set_profile":
            v = update.u
            if not present(v):
                raise VertexNotFoundError(v)
            closed = pg._coerce_profile(update.labels or (), validate=True)
            if closed == prof(v):
                continue
            pstate[v] = closed
            effective += 1
        else:  # pragma: no cover - GraphUpdate rejects unknown ops
            raise InvalidInputError(f"unknown update op {op!r}")
    return effective, pg.version + effective


# ----------------------------------------------------------------------
# the log itself
# ----------------------------------------------------------------------
class WriteAheadLog:
    """One append-only log file of :class:`WalRecord` frames.

    Opening scans the existing file front to back: complete, CRC-valid
    frames are counted; the first invalid frame and everything after it
    are treated as a torn tail from a crash mid-append and truncated
    (the byte count lands in :attr:`dropped_bytes`), unless a valid frame
    follows the invalid one — then opening raises
    :class:`WalCorruptError` and leaves the file as it is. The file handle then
    stays open in append mode; every :meth:`append` is flushed and
    fsync'd before it returns.
    """

    def __init__(self, path: PathLike) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._dropped_bytes = 0
        #: Notified on every append and truncate so tail-followers
        #: (:meth:`cursor` / :meth:`wait_for_change`) wake without polling.
        self._change = threading.Condition()
        #: Bumped on :meth:`truncate`; a cursor built against an older
        #: generation must restart from the beginning of the new log.
        self._generation = 0
        records, valid_end = self._read_from(0)
        self._num_records = len(records)
        self._last_version: Optional[int] = records[-1].version if records else None
        size = self._path.stat().st_size if self._path.exists() else 0
        if valid_end < size:
            self._dropped_bytes = size - valid_end
            with open(self._path, "r+b") as fh:
                fh.truncate(valid_end)
                fh.flush()
                os.fsync(fh.fileno())
        self._fh = open(self._path, "ab")

    def _read_from(self, offset: int) -> Tuple[List[WalRecord], int]:
        """Complete records from byte ``offset``; the offset after the last.

        Stops at the first frame that is short, oversized, CRC-failing or
        not a record: a crash can tear the final frame, and every
        complete record before it was fsync'd and is safe. A bad frame
        whose declared end is followed by a valid frame is not a tail but
        corruption in the middle of the log: that raises
        :class:`WalCorruptError` instead, since truncating would throw the
        records after it away.
        """
        records: List[WalRecord] = []
        if not self._path.exists():
            return records, offset
        with open(self._path, "rb") as fh:
            fh.seek(offset)
            try:
                for payload in iter_frames(fh.read):
                    records.append(
                        WalRecord.from_payload(json.loads(payload.decode("utf-8")))
                    )
                    offset += _FRAME.size + len(payload)
            except (ValueError, WalCorruptError, InvalidInputError):
                if _frame_follows(fh, offset):
                    raise WalCorruptError(
                        f"{self._path}: the record at byte {offset} is corrupt "
                        f"and valid records follow it"
                    ) from None
        return records, offset

    # -- introspection -------------------------------------------------
    @property
    def path(self) -> Path:
        """Location of the log file."""
        return self._path

    @property
    def num_records(self) -> int:
        """Complete records currently in the log."""
        return self._num_records

    @property
    def last_version(self) -> Optional[int]:
        """``version`` of the newest record (None when the log is empty)."""
        return self._last_version

    @property
    def dropped_bytes(self) -> int:
        """Torn-tail bytes discarded when the log was opened (usually 0)."""
        return self._dropped_bytes

    @property
    def generation(self) -> int:
        """Truncation epoch: bumped each time :meth:`truncate` wipes the log.

        A :class:`WalCursor` snapshots this; a mismatch later means the
        records it was following no longer exist (they were folded into a
        snapshot) and the follower must re-seek or resync.
        """
        with self._change:
            return self._generation

    @property
    def first_base(self) -> Optional[int]:
        """``base`` of the oldest record (None when the log is empty).

        The replication floor: a subscriber whose version is below this
        cannot be caught up from the log alone and needs a fresh snapshot.
        """
        records = self.records()
        return records[0].base if records else None

    # -- writing -------------------------------------------------------
    def append(
        self, base: int, version: int, updates: Sequence[GraphUpdate]
    ) -> WalRecord:
        """Frame, append and fsync one batch; returns the logged record.

        Must be called *before* the corresponding in-memory apply — that
        ordering is the whole durability argument. Refuses version
        brackets that don't extend the log (a gap here would make the
        record unreplayable).
        """
        if self._fh.closed:
            raise WalError(f"{self._path}: log is closed")
        if version < base:
            raise WalError(f"record version {version} precedes its base {base}")
        if self._last_version is not None and base < self._last_version:
            raise WalError(
                f"record base {base} precedes the log tail "
                f"(last logged version {self._last_version})"
            )
        record = WalRecord(base, version, updates)
        self._fh.write(pack_frame(record.to_payload()))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._num_records += 1
        self._last_version = version
        with self._change:
            self._change.notify_all()
        return record

    def truncate(self) -> None:
        """Drop every record (called after its effects reach a snapshot)."""
        if self._fh.closed:
            raise WalError(f"{self._path}: log is closed")
        self._fh.truncate(0)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._num_records = 0
        self._last_version = None
        with self._change:
            self._generation += 1
            self._change.notify_all()

    def close(self) -> None:
        """Close the file handle; the log object is unusable afterwards."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading / replay ----------------------------------------------
    def records(self) -> List[WalRecord]:
        """Every complete record, oldest first (re-read from disk)."""
        self._fh.flush()
        return self._read_from(0)[0]

    def replay_into(self, pg: ProfiledGraph) -> int:
        """Re-apply logged batches onto ``pg``; returns batches applied.

        Records with ``version <= pg.version`` are already reflected in
        the graph (they were folded into the snapshot ``pg`` came from)
        and are skipped. Each remaining record must start exactly at the
        graph's current version — a mismatch means the snapshot and log
        disagree, and replay raises :class:`WalReplayError` rather than
        guess. After replay the graph sits at the last record's
        ``version``: the exact pre-crash state.
        """
        applied = 0
        for number, record in enumerate(self.records(), start=1):
            if record.version <= pg.version:
                continue
            if record.base != pg.version:
                raise WalReplayError(
                    f"{self._path}: record {number} applies at version "
                    f"{record.base} but the graph is at {pg.version}"
                )
            for update in record.updates:
                apply_update(pg, update)
            if pg.version != record.version:
                raise WalReplayError(
                    f"{self._path}: record {number} promised version "
                    f"{record.version} but replay produced {pg.version}"
                )
            applied += 1
        return applied

    # -- tail following (replication stream source) --------------------
    def read_frames_from(self, offset: int) -> Tuple[List[WalRecord], int]:
        """Complete records starting at byte ``offset``; new offset after them.

        The incremental flavour of :meth:`records`: a follower remembers
        the returned offset and re-calls as the log grows, so streaming N
        records costs O(N) total, not O(N²). ``offset`` must sit on a
        frame boundary previously returned by this method (0 to start).
        """
        self._fh.flush()
        size = self._path.stat().st_size if self._path.exists() else 0
        if offset > size:
            raise WalError(
                f"{self._path}: follower offset {offset} is past the log "
                f"end {size} (log was truncated; re-seek from 0)"
            )
        return self._read_from(offset)

    def wait_for_change(self, generation: int, offset: int, timeout: float) -> bool:
        """Block until the log grows past ``offset`` or leaves ``generation``.

        Returns ``True`` when there is something new to look at (more
        bytes, or a truncation reset the log) and ``False`` on timeout —
        the tail-follower's heartbeat tick.
        """
        deadline = time.monotonic() + timeout
        with self._change:
            while True:
                if self._generation != generation:
                    return True
                size = self._path.stat().st_size if self._path.exists() else 0
                if size > offset:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._change.wait(timeout=remaining)

    def cursor(self, after_version: int) -> "WalCursor":
        """A :class:`WalCursor` positioned just past ``after_version``."""
        return WalCursor(self, after_version)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WriteAheadLog({self._path}, records={self._num_records})"


class WalCursor:
    """A resumable read position in a :class:`WriteAheadLog`.

    The replication writer holds one cursor per subscribed replica:
    :meth:`pending` drains every complete record with ``version`` greater
    than the subscriber's, and :meth:`wait` blocks (with a timeout, so
    heartbeats can interleave) until the log moves. A log truncation while
    following (the writer checkpointed) flips :attr:`lost_history` if the
    records the cursor still needed are gone — the subscriber must then
    resync from a fresh snapshot.

    Not thread-safe; each follower thread owns its cursor.
    """

    def __init__(self, wal: WriteAheadLog, after_version: int) -> None:
        self._wal = wal
        self._after = after_version
        self._generation = wal.generation
        self._offset = 0
        self.lost_history = False

    @property
    def after_version(self) -> int:
        """Every record up to and including this version has been drained."""
        return self._after

    def _reseek(self) -> None:
        """Handle a truncation: restart from 0, flagging lost history.

        After a checkpoint the log only holds records *after* the
        snapshot; if the subscriber was already past the truncation point
        (its version >= every surviving record's base floor, i.e. the
        log restarts at or after ``after_version``) nothing is lost.
        """
        self._generation = self._wal.generation
        self._offset = 0
        first = self._wal.first_base
        if first is not None and first > self._after:
            self.lost_history = True
        # An empty truncated log loses nothing: new records will append
        # with base >= the checkpoint version >= any caught-up follower.

    def pending(self) -> List[WalRecord]:
        """Drain records newer than the cursor position (oldest first)."""
        if self._generation != self._wal.generation:
            self._reseek()
        if self.lost_history:
            return []
        try:
            records, self._offset = self._wal.read_frames_from(self._offset)
        except WalError:
            self._reseek()
            if self.lost_history:
                return []
            records, self._offset = self._wal.read_frames_from(self._offset)
        fresh = [r for r in records if r.version > self._after]
        for record in fresh:
            if record.base > self._after:
                # Gap: the log truncated between reads and restarted past
                # this cursor (its generation can already match ours after
                # _reseek raced the truncate); records were lost.
                self.lost_history = True
                return fresh[: fresh.index(record)]
            self._after = record.version
        return fresh

    def wait(self, timeout: float) -> bool:
        """Block until the log may have news for this cursor (or timeout)."""
        return self._wal.wait_for_change(self._generation, self._offset, timeout)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WalCursor(after={self._after}, offset={self._offset})"
