"""The read-replica role: boot from a shipped snapshot, follow the stream.

:class:`ReplicaGateway` serves the full read surface (``/query``,
``/batch``, ``/healthz``, ``/stats``, ``/metrics``) of a
:class:`~repro.server.gateway.CommunityGateway` while refusing writes
with ``307 Temporary Redirect`` to the writer. Its state comes from two
places:

* **boot** — the local store directory if it has history (a restarted
  replica resumes from its own snapshot + WAL, no writer needed),
  otherwise one ``GET /replication/snapshot`` fetch from the writer;
* **steady state** — a background *follower* thread subscribed to the
  writer's framed WAL stream. Each ``record`` frame is applied through
  :meth:`CommunityService.apply_updates
  <repro.api.service.CommunityService.apply_updates>`, which fsyncs the
  record to the replica's **own** WAL before the in-memory apply — so a
  ``kill -9``'d replica reboots to exactly the last version it applied
  and re-subscribes from there.

The follower reconnects forever with a backoff: a dead writer degrades
the replica to stale-but-versioned reads (every answer still carries its
``graph_version``), never to an outage. A ``resync`` frame — the replica
fell behind the writer's WAL floor — triggers a full re-bootstrap: fetch
a fresh snapshot, rebuild the service, swap it in under the serving
gateway, and re-subscribe.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from functools import partial
from pathlib import Path
from typing import Optional, Tuple
from urllib.parse import urlsplit

from repro.api.service import CommunityService
from repro.core.profiled_graph import ProfiledGraph
from repro.engine.updates import UpdateReceipt
from repro.errors import InvalidInputError, ReproError
from repro.replication.protocol import (
    CLOSE,
    HEARTBEAT,
    HELLO,
    RECORD,
    RESYNC,
    SNAPSHOT_PATH,
    STREAM_PATH,
    FrameError,
    FrameReader,
    record_from_frame,
)
from repro.server.app import WriteRedirectError
from repro.server.coalescer import RequestCoalescer
from repro.server.gateway import CommunityGateway
from repro.storage import apply_record, write_snapshot_bytes
from repro.storage.store import GraphStore, StorageError

__all__ = ["ReplicaGateway", "ReplicationError", "parse_http_url"]


class ReplicationError(ReproError):
    """A replication-protocol exchange with the writer failed."""


def parse_http_url(url: str) -> Tuple[str, int]:
    """``(host, port)`` of an ``http://host:port`` base URL."""
    parts = urlsplit(url if "//" in url else f"//{url}", scheme="http")
    if parts.scheme != "http" or not parts.hostname:
        raise InvalidInputError(f"expected an http://host:port URL, got {url!r}")
    return parts.hostname, parts.port or 80


def _redirect(gateway: "ReplicaGateway", body: bytes, headers, path: str):
    """Route adapter for a write route on a replica: ``307`` to the writer."""
    raise WriteRedirectError(f"{gateway.writer_url}{path}")


def _no_local_seed() -> ProfiledGraph:
    """Cold-seed stand-in for a store that must already hold a snapshot."""
    raise StorageError(
        "replica store has no snapshot and no WAL — bootstrap from the "
        "writer did not run"
    )


class ReplicaGateway(CommunityGateway):
    """A read-only gateway kept current by the writer's WAL stream.

    Parameters
    ----------
    writer_url:
        Base URL of the :class:`~repro.replication.writer.WriterGateway`.
    data_dir:
        This replica's own durable store. Empty on first boot → the
        snapshot is fetched from the writer; populated → the replica
        boots locally and only needs the writer to catch up.
    reconnect_backoff:
        Seconds between stream re-subscription attempts while the writer
        is unreachable.
    stream_timeout:
        Socket timeout on the stream connection; must exceed the
        writer's heartbeat interval or idle streams look dead.
    service_opts:
        Extra keyword arguments for the replica's
        :class:`~repro.api.service.CommunityService` (middleware,
        ``max_limit``, engine knobs...).
    Remaining keyword arguments go to
    :class:`~repro.server.gateway.CommunityGateway`.
    """

    role = "replica"

    def __init__(
        self,
        writer_url: str,
        data_dir,
        reconnect_backoff: float = 0.2,
        stream_timeout: float = 10.0,
        service_opts: Optional[dict] = None,
        **kwargs,
    ) -> None:
        self.writer_url = writer_url.rstrip("/")
        self._writer_addr = parse_http_url(self.writer_url)
        self._data_dir = Path(data_dir)
        self.reconnect_backoff = reconnect_backoff
        self.stream_timeout = stream_timeout
        self._service_opts = dict(service_opts or {})
        self._state_lock = threading.Lock()
        self._connected = False
        self._writer_version = -1
        self._last_contact: Optional[float] = None
        self._records_applied = 0
        self._resyncs = 0
        self._stream_conn: Optional[http.client.HTTPConnection] = None
        self._stop_follower = threading.Event()
        self._follower: Optional[threading.Thread] = None
        self._bootstrap_store()
        service = CommunityService(
            _no_local_seed, storage_dir=self._data_dir, **self._service_opts
        )
        super().__init__(service, **kwargs)

    # ------------------------------------------------------------------
    # bootstrap / resync
    # ------------------------------------------------------------------
    def _fetch_snapshot(self) -> bytes:
        """One ``GET /replication/snapshot`` round trip; the raw document."""
        host, port = self._writer_addr
        conn = http.client.HTTPConnection(host, port, timeout=self.stream_timeout)
        try:
            conn.request("GET", SNAPSHOT_PATH)
            response = conn.getresponse()
            raw = response.read()
            if response.status != 200:
                raise ReplicationError(
                    f"snapshot fetch from {self.writer_url} answered "
                    f"HTTP {response.status}"
                )
            return raw
        except (OSError, http.client.HTTPException) as exc:
            raise ReplicationError(
                f"snapshot fetch from {self.writer_url} failed: {exc}"
            ) from exc
        finally:
            conn.close()

    def _install_snapshot(self, raw: bytes) -> None:
        """Install the writer's checkpoint bytes as the local store, as shipped."""
        write_snapshot_bytes(raw, self._data_dir / GraphStore.SNAPSHOT_NAME)
        wal_path = self._data_dir / GraphStore.WAL_NAME
        if wal_path.exists():
            # Anything the old WAL held predates the fresh snapshot;
            # dropping it keeps boot from even scanning stale frames.
            wal_path.unlink()

    def _bootstrap_store(self) -> None:
        """Make ``data_dir`` bootable: fetch the writer snapshot if empty."""
        has_snapshot = (self._data_dir / GraphStore.SNAPSHOT_NAME).exists()
        has_wal = (self._data_dir / GraphStore.WAL_NAME).exists()
        if has_snapshot or has_wal:
            return  # local history wins; the stream will catch us up
        self._install_snapshot(self._fetch_snapshot())

    def _rebootstrap(self) -> None:
        """Resync: refetch the snapshot and swap a fresh service in live.

        Called from the follower thread when the stream says the local
        version predates the writer's WAL floor. Readers keep being
        served throughout: the new service (and a new coalescer bound to
        it) is built first, the swap is one attribute store, and the old
        coalescer drains against the old in-memory state before closing.
        """
        raw = self._fetch_snapshot()
        old_service = self.service
        old_coalescer = self.coalescer
        old_subscriptions = self.subscriptions
        old_service.close()  # release the store's file handles first
        self._install_snapshot(raw)
        service = CommunityService(
            _no_local_seed, storage_dir=self._data_dir, **self._service_opts
        )
        self.service = service
        # The new service booted the writer's subscriptions from the
        # checkpoint. Closing the old manager wakes its parked readers;
        # they re-poll against the new one, which answers a cursor behind
        # its windows with a reset.
        self.subscriptions = service.subscriptions
        old_subscriptions.close()
        if old_coalescer is not None:
            self.coalescer = RequestCoalescer(
                service,
                window=self._coalesce_window,
                max_batch=self._max_batch,
                max_queue=self._max_queue,
            )
            old_coalescer.close(timeout=None)
        with self._state_lock:
            self._resyncs += 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReplicaGateway":
        """Start serving, then start following the writer's stream."""
        super().start()
        self._follower = threading.Thread(
            target=self._follow_loop, name="repro-replica-follower", daemon=True
        )
        self._follower.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop the follower, then drain and close the serving gateway."""
        self._stop_follower.set()
        with self._state_lock:
            conn = self._stream_conn
        if conn is not None:
            # Break the blocking stream read so the follower exits now
            # instead of after its socket timeout.
            conn.close()
        if self._follower is not None:
            self._follower.join(timeout=10.0)
        super().close(drain=drain)

    # ------------------------------------------------------------------
    # write refusal
    # ------------------------------------------------------------------
    def apply_updates(self, updates) -> UpdateReceipt:
        """Refuse: replicas are read-only; the writer owns mutations."""
        raise WriteRedirectError(f"{self.writer_url}/update")

    def extra_routes(self) -> dict:
        """Registration is a write: the writer's, like ``/update``."""
        return {
            ("POST", path): partial(_redirect, path=path)
            for path in ("/subscribe", "/unsubscribe")
        }

    # ------------------------------------------------------------------
    # the follower
    # ------------------------------------------------------------------
    def _note_contact(self, version: int, connected: bool) -> None:
        with self._state_lock:
            self._connected = connected
            if version >= 0:
                self._writer_version = max(self._writer_version, version)
            self._last_contact = time.monotonic()

    def _apply_record(self, record) -> None:
        """Apply one shipped WAL record by the boot-replay rule."""
        service = self.service
        if apply_record(service.pg, record, service.apply_updates, self._restore_logged):
            with self._state_lock:
                self._records_applied += 1
                self._writer_version = max(self._writer_version, record.version)
                self._last_contact = time.monotonic()

    def _restore_logged(self, entry: dict) -> None:
        """Log a shipped subscription record here, then install its head."""
        service = self.service
        with service.explorer.mutation_lock:
            service.storage.wal.append_subscription(service.pg.version, entry)
            service.subscriptions.restore(entry)

    def _follow_once(self) -> None:
        """One subscription: connect, stream frames, apply until it drops."""
        host, port = self._writer_addr
        conn = http.client.HTTPConnection(host, port, timeout=self.stream_timeout)
        with self._state_lock:
            self._stream_conn = conn
        try:
            body = json.dumps({"from_version": self.service.pg.version})
            conn.request(
                "POST",
                STREAM_PATH,
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            if response.status != 200:
                raise ReplicationError(
                    f"stream subscribe answered HTTP {response.status}"
                )
            for frame in FrameReader(response).frames():
                if self._stop_follower.is_set():
                    return
                kind = frame.get("type")
                if kind in (HELLO, HEARTBEAT):
                    self._note_contact(int(frame.get("version", -1)), True)
                elif kind == RECORD:
                    self._apply_record(record_from_frame(frame))
                elif kind == RESYNC:
                    self._rebootstrap()
                    return
                elif kind == CLOSE:
                    return  # writer draining; reconnect with backoff
        finally:
            with self._state_lock:
                self._stream_conn = None
            conn.close()

    def _follow_loop(self) -> None:
        """Reconnect-forever driver around :meth:`_follow_once`."""
        while not self._stop_follower.is_set():
            try:
                self._follow_once()
            except (OSError, http.client.HTTPException, FrameError, ReproError):
                # Writer down, stream torn, or a gap we must re-subscribe
                # over — all retried on the same backoff path. The health
                # payload carries the disconnect; reads keep serving.
                pass
            self._note_contact(-1, False)
            self._stop_follower.wait(self.reconnect_backoff)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _health_extra(self) -> dict:
        """Replica vitals: stream liveness and how far behind it is."""
        version = self.service.pg.version
        with self._state_lock:
            connected = self._connected
            writer_version = self._writer_version
            last_contact = self._last_contact
            applied = self._records_applied
            resyncs = self._resyncs
        return {
            "replication": {
                "writer_url": self.writer_url,
                "connected": connected,
                "writer_version": None if writer_version < 0 else writer_version,
                "lag_versions": (
                    max(0, writer_version - version) if writer_version >= 0 else None
                ),
                "seconds_since_contact": (
                    None
                    if last_contact is None
                    else round(time.monotonic() - last_contact, 3)
                ),
                "records_applied": applied,
                "resyncs": resyncs,
            }
        }
