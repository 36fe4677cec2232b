"""The routing front-end: the fourth serving role, fanning reads across replicas.

:class:`ReplicationRouter` owns no graph. It is served exactly like the
standalone, writer and replica gateways — the same threading HTTP server,
request handler and :func:`~repro.server.app.handle_request` routing and
error envelopes (one handler thread per client connection) — and its
write and read routes proxy to a backend over pooled keep-alive
:class:`http.client.HTTPConnection` objects. A plain thread polls every
backend's ``/healthz``.

Routing policy:

* ``POST /update``, ``POST /subscribe`` and ``POST /unsubscribe`` → the
  writer, always. Unreachable writer → ``503`` with ``Retry-After``
  (writes are not failed over; there is one writer).
* ``POST /query``, ``POST /batch`` and ``POST /subscribe/poll`` → the
  **least-loaded eligible replica** (fewest router-side in-flight
  requests, then the coalescer ``queue_depth`` from health polls). A
  replica that refuses or drops mid-request is marked unhealthy and the
  request retried on another — clients never see a single replica
  failure — and so is a replica's ``404`` on a poll (it has not applied
  the registration yet). With **no** live replica, reads fall back to the
  writer rather than going dark.
* ``GET /healthz`` / ``GET /stats`` → answered by the router itself,
  describing the fleet.

Read-your-writes: every proxied answer carries ``X-Repro-Graph-Version``
(and update receipts report the produced version); a client that just
wrote version *v* sends ``X-Repro-Min-Version: v`` on its next read and
the router only considers replicas whose last seen version is ≥ *v* —
waiting, bounded by ``min_version_deadline``, for one to catch up before
answering ``503 min_version_deadline``. Replica versions are tracked
from response headers and background health polls, so freshness costs no
JSON parsing on the hot path.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from functools import partial
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.errors import InvalidInputError
from repro.replication.protocol import MIN_VERSION_HEADER
from repro.replication.replica import parse_http_url
from repro.server.app import ROUTES, VERSION_HEADER, HttpResponse, _error
from repro.server.client import _open_connection
from repro.server.gateway import _ServingRole
from repro.version import __version__

__all__ = ["BackendState", "ReplicationRouter"]

#: Backend response headers are handled as one lower-cased dict per
#: answer (a handful of lookups per request, each a scan on the parsed
#: message). These are relayed to the client; the content type rides in
#: the :class:`~repro.server.app.HttpResponse`.
_VERSION = VERSION_HEADER.lower()
_RELAY_HEADERS = (_VERSION, "retry-after", "location", "allow")
#: Sleep between eligibility re-checks while waiting out a min-version.
_WAIT_TICK = 0.05
#: What a failed backend round trip raises: refused, reset or timed-out
#: sockets, and answers :mod:`http.client` cannot parse.
_BACKEND_ERRORS = (OSError, http.client.HTTPException)


def _unavailable(err_type: str, message: str) -> HttpResponse:
    """``503`` with ``Retry-After``: nothing can take the request right now."""
    return _error(503, err_type, message, headers=(("Retry-After", "1"),))


class BackendState:
    """The router's live view of one backend gateway.

    Every handler thread and the health poller touch it: all reads and
    writes of the mutable fields happen under the owning router's lock.
    """

    __slots__ = (
        "url",
        "host",
        "port",
        "is_writer",
        "healthy",
        "version",
        "queue_depth",
        "inflight",
        "requests",
        "errors",
        "_idle",
    )

    def __init__(self, url: str, is_writer: bool) -> None:
        self.url = url.rstrip("/")
        self.host, self.port = parse_http_url(url)
        self.is_writer = is_writer
        #: Optimistic until a poll or a proxied request says otherwise,
        #: so the router serves from the first moment it is up.
        self.healthy = True
        #: Highest graph version this backend has been seen to serve.
        self.version = -1
        self.queue_depth = 0
        #: Requests this router currently has outstanding against it.
        self.inflight = 0
        self.requests = 0
        self.errors = 0
        #: Kept-alive connections to this backend, ready for reuse.
        self._idle: List[http.client.HTTPConnection] = []

    def describe(self) -> dict:
        """The health/stats JSON block for this backend."""
        return {
            "url": self.url,
            "role": "writer" if self.is_writer else "replica",
            "healthy": self.healthy,
            "version": None if self.version < 0 else self.version,
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "requests": self.requests,
            "errors": self.errors,
        }


def _proxied_headers(headers: Mapping) -> dict:
    """The request headers a backend gets to see."""
    out = {"Content-Type": headers.get("Content-Type", "application/json")}
    floor = headers.get(MIN_VERSION_HEADER)
    if floor is not None:
        out[MIN_VERSION_HEADER] = floor
    return out


class ReplicationRouter(_ServingRole):
    """Read/write router over one writer and N replicas.

    Parameters
    ----------
    writer_url:
        The write-accepting gateway.
    replica_urls:
        Read-serving gateways; at least one.
    host, port:
        Bind address for the router's own listener (``port=0`` →
        ephemeral; read :attr:`address` after :meth:`start`).
    min_version_deadline:
        Upper bound, in seconds, a read with ``X-Repro-Min-Version``
        waits for a sufficiently fresh replica before ``503``.
    health_interval:
        Seconds between background ``/healthz`` polls of every backend.
    backend_timeout:
        Per-request timeout against a backend (connect and response).
    """

    role = "router"

    def __init__(
        self,
        writer_url: str,
        replica_urls: Sequence[str],
        host: str = "127.0.0.1",
        port: int = 0,
        min_version_deadline: float = 2.0,
        health_interval: float = 0.25,
        backend_timeout: float = 30.0,
    ) -> None:
        if not replica_urls:
            raise InvalidInputError("a router needs at least one replica URL")
        super().__init__(
            host,
            port,
            {
                **{
                    ("POST", path): partial(ReplicationRouter._proxy_read, path=path)
                    for path in ("/query", "/batch", "/subscribe/poll")
                },
                **{
                    ("POST", path): partial(ReplicationRouter._proxy_write, path=path)
                    for path in ("/update", "/subscribe", "/unsubscribe")
                },
                ("GET", "/healthz"): ROUTES[("GET", "/healthz")],
                ("GET", "/stats"): ROUTES[("GET", "/stats")],
            },
        )
        self.writer = BackendState(writer_url, is_writer=True)
        self.replicas = [BackendState(url, is_writer=False) for url in replica_urls]
        self.min_version_deadline = min_version_deadline
        self.health_interval = health_interval
        self.backend_timeout = backend_timeout
        #: Guards every :class:`BackendState` field, :attr:`counters` and
        #: :attr:`last_write_version` against concurrent handler threads.
        self._lock = threading.Lock()
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-router-health", daemon=True
        )
        self.counters = {
            "reads_proxied": 0,
            "writes_proxied": 0,
            "failovers": 0,
            "writer_read_fallbacks": 0,
            "min_version_waits": 0,
            "deadline_exceeded": 0,
            "writer_unavailable": 0,
        }
        #: Version produced by the newest write proxied through here —
        #: the fleet-wide read-your-writes watermark, surfaced on
        #: ``/healthz`` so clients can learn a floor without writing.
        self.last_write_version = -1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReplicationRouter":
        """Bind the listener, then start polling the backends' health."""
        super().start()
        self._health_thread.start()
        return self

    def close(self) -> None:
        """Stop serving: every accepted request is still answered, then the
        health poller and the pooled backend connections go. Idempotent."""
        if not self._stop_accepting():
            return
        self._join_handlers()
        if self._health_thread.is_alive():
            self._health_thread.join(timeout=10.0)
        with self._lock:
            for backend in (self.writer, *self.replicas):
                while backend._idle:
                    backend._idle.pop().close()

    # ------------------------------------------------------------------
    # proxying
    # ------------------------------------------------------------------
    def _proxy_write(self, body: bytes, headers: Mapping, path: str) -> HttpResponse:
        """Forward a write to the writer; ``503`` when it is unreachable."""
        backend = self.writer
        try:
            status, r_headers, payload = self._forward(
                backend, "POST", path, body, _proxied_headers(headers)
            )
        except _BACKEND_ERRORS:
            with self._lock:
                backend.healthy = False
                self.counters["writer_unavailable"] += 1
            return _unavailable(
                "writer_unavailable",
                f"the writer at {backend.url} is unreachable; retry shortly",
            )
        version = r_headers.get(_VERSION)
        with self._lock:
            self.counters["writes_proxied"] += 1
            if status == 200 and version is not None:
                produced = int(version)
                backend.version = max(backend.version, produced)
                self.last_write_version = max(self.last_write_version, produced)
        return self._relay(backend, status, r_headers, payload)

    def _pick_locked(
        self, min_version: Optional[int], failed: set
    ) -> Optional[BackendState]:
        """The least-loaded eligible read backend, or ``None`` right now.

        The writer is the last resort, and only when **no** replica is
        live: healthy-but-stale replicas mean "wait", not "fall back".
        """
        live = [b for b in self.replicas if b.healthy and b.url not in failed]
        candidates = [
            b for b in live if min_version is None or b.version >= min_version
        ]
        writer = self.writer
        # The writer is the source of truth: any floor a client learned
        # from a real answer is at most the writer's version. An explicit
        # floor *above* what the writer has seen cannot be satisfied.
        if (
            not live
            and writer.healthy
            and writer.url not in failed
            and (min_version is None or writer.version >= min_version)
        ):
            self.counters["writer_read_fallbacks"] += 1
            return writer
        return min(
            candidates, key=lambda b: (b.inflight, b.queue_depth), default=None
        )

    def _proxy_read(self, body: bytes, headers: Mapping, path: str) -> HttpResponse:
        """Forward a read to the best eligible replica, with failover.

        ``failed`` accumulates replicas that refused or dropped *this*
        request; while waiting out a ``min_version`` it is cleared on
        every tick so a recovering replica gets another chance.
        """
        min_version: Optional[int] = None
        raw_floor = headers.get(MIN_VERSION_HEADER)
        if raw_floor is not None:
            try:
                min_version = int(raw_floor)
            except ValueError:
                raise InvalidInputError(
                    f"{MIN_VERSION_HEADER} must be an integer, got {raw_floor!r}"
                ) from None
        proxied = _proxied_headers(headers)
        deadline = time.monotonic() + self.min_version_deadline
        failed: set = set()
        waited = False
        while True:
            with self._lock:
                backend = self._pick_locked(min_version, failed)
                if backend is not None:
                    backend.inflight += 1
            if backend is None:
                if min_version is None:
                    return _unavailable(
                        "no_backend_available",
                        "every replica (and the writer) is unreachable",
                    )
                if time.monotonic() >= deadline:
                    with self._lock:
                        self.counters["deadline_exceeded"] += 1
                    return _unavailable(
                        "min_version_deadline",
                        f"no replica reached version {min_version} within "
                        f"{self.min_version_deadline:.1f}s",
                    )
                # Healthy-but-stale replicas exist (or failed ones may
                # recover): wait for replication to catch up.
                if not waited:
                    with self._lock:
                        self.counters["min_version_waits"] += 1
                    waited = True
                failed.clear()
                time.sleep(_WAIT_TICK)
                continue
            try:
                status, r_headers, payload = self._forward(
                    backend, "POST", path, body, proxied
                )
            except _BACKEND_ERRORS:
                status = None
            with self._lock:
                backend.inflight -= 1
                if status is None:
                    backend.healthy = False
                elif _VERSION in r_headers:
                    backend.version = max(backend.version, int(r_headers[_VERSION]))
                # 429/503: overloaded or draining — not this request's
                # backend. A replica's 404 on a poll: not fresh enough.
                rejected = status in (None, 429, 503) or (
                    status == 404 and path == "/subscribe/poll" and not backend.is_writer
                )
                if rejected:
                    backend.errors += 1
                    self.counters["failovers"] += 1
                else:
                    self.counters["reads_proxied"] += 1
            if rejected:
                failed.add(backend.url)
                continue
            return self._relay(backend, status, r_headers, payload)

    def _relay(
        self, backend: BackendState, status: int, r_headers: Mapping, payload: bytes
    ) -> HttpResponse:
        """A backend's answer as this router's answer, stamped with its source."""
        relayed = [
            (name.title(), r_headers[name]) for name in _RELAY_HEADERS if name in r_headers
        ]
        relayed.append(("X-Repro-Served-By", backend.url))
        return HttpResponse(
            status=status,
            body=payload,
            content_type=r_headers.get("content-type", "application/json"),
            headers=tuple(relayed),
        )

    # ------------------------------------------------------------------
    # backend connections (pooled, keep-alive)
    # ------------------------------------------------------------------
    def _forward(
        self,
        backend: BackendState,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[dict] = None,
    ) -> Tuple[int, Mapping, bytes]:
        """One proxied round trip: ``(status, lower-cased headers, body)``.

        Raises one of :data:`_BACKEND_ERRORS` on failure — including a
        non-integer ``Content-Length`` or ``X-Repro-Graph-Version``, so a
        backend answering garbage takes the same mark-failed/failover
        path as a dead one.
        """
        with self._lock:
            backend.requests += 1
            conn = backend._idle.pop() if backend._idle else None
        while True:
            reused = conn is not None
            try:
                if conn is None:
                    conn = _open_connection(
                        backend.host, backend.port, self.backend_timeout
                    )
                conn.request(method, path, body=body, headers=headers or {})
                response = conn.getresponse()
                r_headers = {k.lower(): v for k, v in response.getheaders()}
                for name in ("content-length", _VERSION):
                    if not r_headers.get(name, "0").isdigit():
                        raise http.client.HTTPException(
                            f"malformed backend header {name}: {r_headers[name]!r}"
                        )
                payload = response.read()
            except _BACKEND_ERRORS:
                if conn is not None:
                    conn.close()
                if not reused:
                    raise
                conn = None  # stale kept-alive socket; retry once on a fresh one
                continue
            with self._lock:
                keep = not response.will_close and not self._closed.is_set()
                if keep:
                    backend._idle.append(conn)
            if not keep:
                conn.close()
            return response.status, r_headers, payload

    # ------------------------------------------------------------------
    # background health polling
    # ------------------------------------------------------------------
    def _poll_backend(self, backend: BackendState) -> None:
        try:
            status, _, payload = self._forward(backend, "GET", "/healthz")
            vitals = json.loads(payload)
            if not isinstance(vitals, dict):
                raise ValueError(f"health payload is not an object: {vitals!r}")
        except (*_BACKEND_ERRORS, ValueError):
            with self._lock:
                backend.healthy = False
            return
        version = vitals.get("graph_version")
        depth = vitals.get("queue_depth")
        with self._lock:
            backend.healthy = status == 200 and vitals.get("status") == "ok"
            if isinstance(version, int):
                backend.version = max(backend.version, version)
            if isinstance(depth, int):
                backend.queue_depth = depth

    def _health_loop(self) -> None:
        """Poll every backend's ``/healthz`` until :meth:`close`."""
        backends = (self.writer, *self.replicas)
        while not self._closed.is_set():
            for backend in backends:
                self._poll_backend(backend)
            self._closed.wait(self.health_interval)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The router's ``/healthz`` payload: its own vitals plus the fleet's."""
        with self._lock:
            writer = self.writer.describe()
            replicas = [b.describe() for b in self.replicas]
            last_write = self.last_write_version
        return {
            "status": "draining" if self._closed.is_set() else "ok",
            "version": __version__,
            "role": self.role,
            "uptime_seconds": self.uptime_seconds,
            "last_write_version": None if last_write < 0 else last_write,
            "writer": writer,
            "replicas": replicas,
            "replicas_healthy": sum(1 for b in replicas if b["healthy"]),
        }

    def stats(self) -> dict:
        """The router's ``/stats`` payload: routing counters and the fleet."""
        with self._lock:
            counters = dict(self.counters)
            writer = self.writer.describe()
            replicas = [b.describe() for b in self.replicas]
        return {
            "server": {
                "role": self.role,
                "uptime_seconds": self.uptime_seconds,
                "min_version_deadline": self.min_version_deadline,
                "health_interval": self.health_interval,
                "counters": counters,
                "requests": self._request_rows(),
            },
            "writer": writer,
            "replicas": replicas,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bound = self.url if self._server is not None else "unbound"
        return (
            f"ReplicationRouter({bound}, writer={self.writer.url}, "
            f"replicas={len(self.replicas)})"
        )
