"""The single-writer role: the one gateway that accepts ``POST /update``.

:class:`WriterGateway` is a :class:`~repro.server.gateway.CommunityGateway`
over a **durable** service (``storage_dir=`` is mandatory — the write-ahead
log *is* the replication stream source) with two extra routes:

* ``GET /replication/snapshot`` ships the current serving state as one
  digest-verified checkpoint, subscription section included (replica
  bootstrap / resync);
* ``POST /replication/stream`` turns the connection into a long-lived
  framed WAL stream (see :mod:`repro.replication.protocol`).

Every stream subscriber gets its own handler thread holding a
:class:`~repro.storage.wal.WalCursor`; the cursor drains records the
subscriber hasn't seen, then blocks on the WAL's change condition — an
``/update`` or ``/subscribe`` acknowledged by the writer is therefore on
the wire to every connected replica within one condition wake, with no
polling. While the
log is idle the stream carries heartbeats so replicas can distinguish "no
writes" from "writer gone". A subscriber whose version predates the WAL
floor (its records were folded into a snapshot by a checkpoint) is told
to ``resync`` instead of being fed a gap.
"""

from __future__ import annotations

import threading
from typing import Iterator, Union

from repro.api.service import CommunityService
from repro.core.profiled_graph import ProfiledGraph
from repro.errors import InvalidInputError
from repro.replication.protocol import (
    CLOSE,
    HEARTBEAT,
    HELLO,
    RESYNC,
    SNAPSHOT_PATH,
    STREAM_PATH,
    encode_frame,
    record_frame,
)
from repro.server.app import VERSION_HEADER, HttpResponse, _parse_json
from repro.server.gateway import CommunityGateway
from repro.storage import snapshot_bytes

__all__ = ["WriterGateway"]

_OCTET_STREAM = "application/octet-stream"


def _handle_snapshot(gateway: "WriterGateway", body: bytes, headers) -> HttpResponse:
    """Route adapter for ``GET /replication/snapshot``."""
    return gateway.ship_snapshot()


def _handle_stream(gateway: "WriterGateway", body: bytes, headers) -> HttpResponse:
    """Route adapter for ``POST /replication/stream``."""
    payload = _parse_json(body)
    if not isinstance(payload, dict) or not isinstance(
        payload.get("from_version"), int
    ):
        raise InvalidInputError(
            'stream subscribe body must be {"from_version": <int>}'
        )
    from_version = payload["from_version"]
    if from_version < 0:
        raise InvalidInputError(f"from_version must be >= 0, got {from_version}")
    return HttpResponse(
        status=200,
        body=b"",
        content_type=_OCTET_STREAM,
        stream=lambda: gateway.stream_frames(from_version),
    )


class WriterGateway(CommunityGateway):
    """The write-accepting gateway of a replication deployment.

    Parameters
    ----------
    service:
        The service (or graph) to front — must end up with durable
        storage (:class:`~repro.api.service.CommunityService` built with
        ``storage_dir=``), because subscribers are fed straight from its
        write-ahead log.
    heartbeat_interval:
        Seconds between heartbeat frames on an idle stream. Also bounds
        how long a drain waits for stream threads to notice the close.
    Remaining keyword arguments go to
    :class:`~repro.server.gateway.CommunityGateway`.
    """

    role = "writer"

    def __init__(
        self,
        service: Union[CommunityService, ProfiledGraph],
        heartbeat_interval: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(service, **kwargs)
        if self.service.storage is None:
            raise InvalidInputError(
                "WriterGateway needs a durable service (storage_dir=) — "
                "the write-ahead log is the replication stream source"
            )
        if heartbeat_interval <= 0:
            raise InvalidInputError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        self.heartbeat_interval = heartbeat_interval
        self._subs_lock = threading.Lock()
        self._subscribers = 0
        self._streams_started = 0

    def extra_routes(self) -> dict:
        """The replication endpoints on top of the standard surface."""
        return {
            ("GET", SNAPSHOT_PATH): _handle_snapshot,
            ("POST", STREAM_PATH): _handle_stream,
        }

    # ------------------------------------------------------------------
    # replication endpoints
    # ------------------------------------------------------------------
    def ship_snapshot(self) -> HttpResponse:
        """The full serving state as one checkpoint image.

        Encoded under the engine's mutation lock, as a checkpoint is, so
        the graph and the subscription section capture one version
        boundary, never a half-applied batch; the captured version rides in
        the ``X-Repro-Graph-Version`` header.
        """
        with self.service.explorer.mutation_lock:
            pg = self.service.pg
            version = pg.version
            raw = snapshot_bytes(pg, True, self.subscriptions.heads())
        return HttpResponse(
            status=200,
            body=raw,
            content_type=_OCTET_STREAM,
            headers=((VERSION_HEADER, str(version)),),
        )

    def stream_frames(self, from_version: int) -> Iterator[bytes]:
        """The frame producer behind one ``POST /replication/stream``.

        Runs in the subscriber's handler thread until the subscriber
        drops, the writer drains, or the subscriber falls off the WAL
        floor (→ ``resync``). See the module docstring for the frame
        sequence.
        """
        wal = self.service.storage.wal
        with self._subs_lock:
            self._subscribers += 1
            self._streams_started += 1
        try:
            with self.service.explorer.mutation_lock:
                current = self.service.pg.version
            floor = wal.first_base
            behind_floor = (
                from_version < floor
                if floor is not None
                else from_version < current
            )
            if from_version > current or behind_floor:
                yield encode_frame(
                    {"type": RESYNC, "floor": floor, "version": current}
                )
                return
            cursor = wal.cursor(from_version)
            yield encode_frame(
                {"type": HELLO, "version": current, "from_version": from_version}
            )
            while True:
                for record in cursor.pending():
                    yield record_frame(record)
                if cursor.lost_history:
                    yield encode_frame(
                        {
                            "type": RESYNC,
                            "floor": wal.first_base,
                            "version": cursor.after_version,
                        }
                    )
                    return
                if self._closed.is_set():
                    yield encode_frame({"type": CLOSE, "reason": "draining"})
                    return
                if not cursor.wait(self.heartbeat_interval):
                    yield encode_frame(
                        {"type": HEARTBEAT, "version": cursor.after_version}
                    )
        finally:
            with self._subs_lock:
                self._subscribers -= 1

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _health_extra(self) -> dict:
        """Writer vitals: connected subscribers and the shippable WAL window."""
        wal = self.service.storage.wal
        with self._subs_lock:
            subscribers = self._subscribers
            started = self._streams_started
        return {
            "replication": {
                "subscribers": subscribers,
                "streams_started": started,
                "wal_records": wal.num_records,
                "wal_floor": wal.first_base,
            }
        }
