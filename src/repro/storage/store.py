"""One durable home for a served graph: snapshot + WAL in a directory.

A :class:`GraphStore` owns two files inside its directory::

    snapshot.bin   the last full checkpoint (graph + index, digest-verified,
                   plus the standing subscriptions' heads when there are any)
    wal.log        every update batch and subscription registration since

Boot is two steps: :meth:`GraphStore.load` reads the snapshot — a warm
start that skips both dataset construction and the index build — or
else takes the caller's cold seed (deterministic, version 0, so the log
replays from the beginning); the serving engine is built on that graph;
then :meth:`GraphStore.replay` runs the WAL through it, landing on the
exact version the previous process last acknowledged.

Checkpointing (:meth:`GraphStore.snapshot`) writes the new snapshot
atomically *first* and truncates the WAL *second*; a crash between the
two steps is harmless because replay skips batches whose ``version`` is
already covered by the snapshot, and subscription entries restore
idempotently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple, Union

from repro.core.profiled_graph import ProfiledGraph
from repro.errors import ReproError
from repro.storage.snapshot import (
    SnapshotCorruptError, SnapshotInfo, load_checkpoint, save_snapshot,
)
from repro.storage.wal import WriteAheadLog

PathLike = Union[str, Path]
#: Cold seed: either a ready graph or a zero-argument factory for one.
Fallback = Union[ProfiledGraph, Callable[[], ProfiledGraph]]


class StorageError(ReproError):
    """The store directory cannot produce a graph (no snapshot, no seed)."""


@dataclass(frozen=True)
class BootReport:
    """How a boot (:meth:`GraphStore.load` + :meth:`GraphStore.replay`) produced its graph."""

    #: ``"snapshot"`` (warm start) or ``"cold"`` (seed + full replay).
    source: str
    #: Graph version of the loaded snapshot (None on a cold boot).
    snapshot_version: Optional[int]
    #: WAL batches replayed on top of the starting point.
    replayed_records: int
    #: Torn-tail bytes the WAL discarded on open (0 unless a crash tore
    #: the final append).
    wal_dropped_bytes: int
    #: Version the booted graph ended at.
    graph_version: int
    #: Whether the booted graph came up with a ready CP-tree.
    index_loaded: bool
    #: Wall-clock seconds for the whole boot (load + replay).
    seconds: float

    def to_dict(self) -> dict:
        """A JSON-ready mapping (surfaced by ``repro serve`` and /stats)."""
        return {
            "source": self.source,
            "snapshot_version": self.snapshot_version,
            "replayed_records": self.replayed_records,
            "wal_dropped_bytes": self.wal_dropped_bytes,
            "graph_version": self.graph_version,
            "index_loaded": self.index_loaded,
            "seconds": self.seconds,
        }


class GraphStore:
    """Snapshot + WAL lifecycle for one graph, rooted in one directory."""

    #: File names inside the store directory.
    SNAPSHOT_NAME = "snapshot.bin"
    WAL_NAME = "wal.log"

    def __init__(self, directory: PathLike) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._wal = WriteAheadLog(self._dir / self.WAL_NAME)

    # -- introspection -------------------------------------------------
    @property
    def directory(self) -> Path:
        """The store's root directory."""
        return self._dir

    @property
    def snapshot_path(self) -> Path:
        """Where the checkpoint lives (may not exist yet)."""
        return self._dir / self.SNAPSHOT_NAME

    @property
    def wal(self) -> WriteAheadLog:
        """The live write-ahead log."""
        return self._wal

    def has_snapshot(self) -> bool:
        """Whether a checkpoint file exists."""
        return self.snapshot_path.exists()

    # -- lifecycle -----------------------------------------------------
    def load(self, fallback: Optional[Fallback] = None) -> Tuple[ProfiledGraph, Tuple[dict, ...]]:
        """Boot, step one: the snapshot's graph and subscription section.

        Without a snapshot: ``fallback``, the cold seed (a graph or a
        zero-argument factory, only invoked on this path), and no
        section; :class:`StorageError` if there is none. Then :meth:`replay`.
        """
        self._boot_started = time.perf_counter()
        self._boot_snapshot_version = None
        if self.has_snapshot():
            pg, subscriptions = load_checkpoint(self.snapshot_path)
            self._boot_snapshot_version = pg.version
            return pg, subscriptions
        if fallback is not None:
            return (fallback() if callable(fallback) else fallback), ()
        raise StorageError(
            f"{self._dir}: no snapshot on disk and no cold seed supplied"
        )

    def replay(
        self, pg: ProfiledGraph, apply: Optional[Callable] = None,
        restore: Optional[Callable[[dict], None]] = None, section: Sequence[dict] = (),
    ) -> BootReport:
        """Boot, step two: :meth:`load`'s ``section`` to ``restore``, then the WAL.

        A section entry ``restore`` refuses is :class:`SnapshotCorruptError`;
        ``apply`` and ``restore`` then feed
        :meth:`~repro.storage.wal.WriteAheadLog.replay_into`.
        """
        for entry in section:
            try:
                restore(entry)
            except ReproError as exc:
                raise SnapshotCorruptError(
                    f"{self.snapshot_path}: malformed subscription entry: {exc}"
                ) from exc
        replayed = self._wal.replay_into(pg, apply, restore)
        return BootReport(
            source="cold" if self._boot_snapshot_version is None else "snapshot",
            snapshot_version=self._boot_snapshot_version,
            replayed_records=replayed,
            wal_dropped_bytes=self._wal.dropped_bytes,
            graph_version=pg.version,
            index_loaded=pg.has_index(),
            seconds=time.perf_counter() - self._boot_started,
        )

    def boot(self, fallback: Optional[Fallback] = None) -> Tuple[ProfiledGraph, BootReport]:
        """:meth:`load` then :meth:`replay`, graph only: the current graph."""
        pg, _ = self.load(fallback)
        return pg, self.replay(pg)

    def snapshot(
        self, pg: ProfiledGraph, include_index: bool = True, subscriptions: Sequence[dict] = ()
    ) -> SnapshotInfo:
        """Checkpoint ``pg`` and truncate the WAL (crash-safe in that order).

        ``subscriptions`` are the standing queries' heads, written as the
        snapshot's subscription section. The snapshot rename is atomic;
        only after it lands is the log cleared. A crash in between leaves
        snapshot + stale log, which boot resolves by skipping batches the
        snapshot already covers.
        """
        info = save_snapshot(pg, self.snapshot_path, include_index, subscriptions)
        self._wal.truncate()
        return info

    def close(self) -> None:
        """Release the WAL file handle."""
        self._wal.close()

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphStore({self._dir})"
