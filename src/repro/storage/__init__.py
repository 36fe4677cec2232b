"""repro.storage — durable on-disk state for served graphs (stdlib-only).

Everything below this package is process-local: a ``repro serve`` boot
pays the full CL-/CP-tree build and a crash loses every applied update.
This package is the persistence layer that fixes both:

* :mod:`repro.storage.snapshot` — a compact, versioned, digest-verified
  binary format for a :class:`~repro.core.profiled_graph.ProfiledGraph`
  *and its built CP-tree*: :func:`~repro.storage.snapshot.save_snapshot`
  / :func:`~repro.storage.snapshot.load_snapshot` /
  :func:`~repro.storage.snapshot.verify_digest`. Loading reassembles the
  index from its stored arrays instead of re-peeling cores, which is why
  a warm boot is a large multiple faster than a cold build;
* :mod:`repro.storage.wal` — an append-only, fsync'd write-ahead log of
  :class:`~repro.engine.updates.GraphUpdate` batches, tagged with the
  graph version each batch produces *before* the in-memory apply, and of
  the zero-advance records that register or drop standing subscriptions;
  :func:`~repro.engine.updates.preview_updates` computes that tag (and
  validates the batch) without touching the graph;
* :mod:`repro.storage.store` — :class:`~repro.storage.store.GraphStore`,
  the snapshot + WAL lifecycle in one directory: boot (snapshot or cold
  seed, then replay), checkpoint (snapshot then truncate).

Front doors: ``repro serve --data-dir DIR`` (replay-on-boot,
snapshot-on-drain), ``repro snapshot`` (write/inspect/verify/compact
checkpoints), ``CommunityService(pg, storage_dir=DIR)`` in code, and
``benchmarks/bench_snapshot_boot.py`` for the warm-vs-cold gate.
"""

from repro.engine.updates import preview_updates
from repro.storage.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotInfo,
    SnapshotVersionError,
    decode_payload,
    encode_payload,
    load_checkpoint,
    load_snapshot,
    load_snapshot_bytes,
    save_snapshot,
    snapshot_bytes,
    verify_digest,
    write_snapshot_bytes,
)
from repro.storage.store import BootReport, GraphStore, StorageError
from repro.storage.wal import (
    WalCorruptError,
    WalCursor,
    WalError,
    WalRecord,
    WalReplayError,
    WriteAheadLog,
    apply_record,
)

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "SnapshotInfo",
    "SnapshotError",
    "SnapshotVersionError",
    "SnapshotCorruptError",
    "encode_payload",
    "decode_payload",
    "save_snapshot",
    "snapshot_bytes",
    "load_snapshot",
    "load_snapshot_bytes",
    "load_checkpoint",
    "verify_digest",
    "write_snapshot_bytes",
    "WalRecord",
    "WalCursor",
    "WriteAheadLog",
    "WalError",
    "WalCorruptError",
    "WalReplayError",
    "apply_record",
    "preview_updates",
    "GraphStore",
    "BootReport",
    "StorageError",
]
