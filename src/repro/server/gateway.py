"""The serving gateway: HTTP server lifecycle around one CommunityService.

The lifecycle itself — bind, accept loop, ``wait()``, address/url,
per-endpoint counters, drain-on-close — lives in one private base,
``_ServingRole``, which every role served over HTTP inherits: the
standalone, writer and replica gateways here and in
:mod:`repro.replication`, and the replication router.

:class:`CommunityGateway` is the process's front door — it owns

* a :class:`~repro.api.service.CommunityService` (constructed from a
  profiled graph, or adopted so callers can configure middleware /
  ``parallel=`` fleets themselves),
* a :class:`~repro.server.coalescer.RequestCoalescer` (unless coalescing
  is disabled) that merges concurrent ``POST /query`` traffic into batch
  dispatches,
* a threading HTTP server (one handler thread per connection, stdlib
  :class:`~http.server.ThreadingHTTPServer`) speaking the wire protocol in
  :mod:`repro.server.app`,
* the per-endpoint request counters behind ``/stats`` and ``/metrics``.

Lifecycle::

    with CommunityGateway(pg, port=0) as gateway:   # port 0 = ephemeral
        host, port = gateway.address
        ...                                          # serve traffic

:meth:`close` is a graceful drain: the listener stops accepting, queued
coalesced requests are answered, in-flight handler threads finish, then
the worker fleet (if any) is released. ``repro serve`` wraps this object
for the command line; tests and benchmarks drive it directly.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from collections import OrderedDict
from http.server import ThreadingHTTPServer
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

from repro.api.query import Query
from repro.api.response import QueryResponse
from repro.api.service import CommunityService
from repro.core.profiled_graph import ProfiledGraph
from repro.engine.updates import UpdateReceipt
from repro.server import metrics as metrics_mod
from repro.server.app import ROUTES, GatewayRequestHandler
from repro.server.coalescer import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    DEFAULT_WINDOW_SECONDS,
    RequestCoalescer,
)
from repro.subscribe import SubscriptionManager
from repro.version import __version__

__all__ = [
    "CommunityGateway",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_MAX_BODY_BYTES",
    "IDEMPOTENCY_CACHE_SIZE",
]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8437
#: Request bodies past this size answer 413 before any JSON parsing.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Receipts remembered for ``idempotency_key`` deduplication. A retrying
#: client reuses its key within one connection's retry budget (seconds),
#: so a small LRU bounds memory without ever evicting a live key in
#: practice.
IDEMPOTENCY_CACHE_SIZE = 1024


class _GatewayHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows its serving role and joins its handlers.

    ``daemon_threads=False`` + ``block_on_close=True`` make
    ``server_close()`` wait for in-flight handler threads — the second half
    of graceful drain (the first is the coalescer flushing its queue).
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True
    #: socketserver's default listen backlog is 5; a burst of concurrent
    #: clients connecting at once would overflow it and pay 1–3 s SYN
    #: retransmit timeouts.
    request_queue_size = 128

    def __init__(self, address, handler_cls, gateway: "_ServingRole") -> None:
        self.gateway = gateway
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler_cls)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # A peer hanging up (a replica closing its stream) ends the response.
        if not isinstance(sys.exc_info()[1], (BrokenPipeError, ConnectionResetError)):
            super().handle_error(request, client_address)

    def server_close(self) -> None:
        # Handler threads serving keep-alive connections block in read()
        # until the *peer* sends another request or hangs up — a peer
        # pooling connections (the replication router, any keep-alive
        # client) would stall the handler join below forever. Half-close
        # the read side of every open connection: idle handlers wake to
        # EOF and exit, while one still writing its response can finish
        # (writes are unaffected by SHUT_RD), keeping the drain honest.
        with self._connections_lock:
            connections = list(self._connections)
        for request in connections:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already gone mid-iteration; the join won't wait on it
        super().server_close()


class _ServingRole:
    """The HTTP lifecycle shared by every serving role.

    The standalone, writer and replica gateways and the replication router
    are all served the same way: one :class:`_GatewayHTTPServer` running
    :class:`~repro.server.app.GatewayRequestHandler`, which routes through
    :func:`~repro.server.app.handle_request` against the role's
    :meth:`routes` table. A role brings that table, its ``health()`` and
    ``stats()`` payloads, and a ``close()`` built from
    :meth:`_stop_accepting` and :meth:`_join_handlers` around whatever it
    has to drain in between.
    """

    #: Serving role advertised by ``/healthz`` and ``/stats``.
    role: str
    #: Request bodies past this size answer 413 before they are read.
    max_body_bytes = DEFAULT_MAX_BODY_BYTES
    #: Emit one access-log line per request on stderr.
    log_requests = False

    def __init__(
        self, host: str, port: int, routes: Dict[Tuple[str, str], Callable]
    ) -> None:
        self._host = host
        self._port = port
        self._routes = routes
        self._known_paths = frozenset(path for _, path in routes)
        self._server: Optional[_GatewayHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self._closed = threading.Event()
        self._request_counts: Dict[Tuple[str, str, int], int] = {}
        self._counts_lock = threading.Lock()

    def start(self):
        """Bind the listener and spawn the accept loop; returns ``self``."""
        if self._server is not None:
            raise RuntimeError(f"{self.role} server already started")
        self._server = _GatewayHTTPServer(
            (self._host, self._port), GatewayRequestHandler, gateway=self
        )
        self._started_at = time.monotonic()
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"repro-{self.role}",
            daemon=True,
        )
        self._server_thread.start()
        return self

    def _stop_accepting(self) -> bool:
        """Flip to draining and stop the listener; ``False`` if already closed.

        Connections accepted so far keep being served until
        :meth:`_join_handlers`.
        """
        if self._closed.is_set():
            return False
        self._closed.set()
        if self._server is not None:
            self._server.shutdown()
        return True

    def _join_handlers(self) -> None:
        """Answer every in-flight request, then release the socket.

        Idle keep-alive connections are half-closed so their handler
        threads exit; one still producing its response finishes first.
        """
        if self._server is not None:
            self._server.server_close()
            self._server_thread.join(timeout=10.0)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until ``close()`` is called (the CLI's serve loop)."""
        return self._closed.wait(timeout=timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` bindings."""
        if self._server is None:
            raise RuntimeError(f"{self.role} server not started")
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """The bound base URL, e.g. ``http://127.0.0.1:8437``."""
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def uptime_seconds(self) -> float:
        """Seconds since :meth:`start` (0.0 before it)."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def routes(self) -> Dict:
        """The role's ``(method, path) -> handler`` table, fixed at construction."""
        return self._routes

    def known_paths(self) -> frozenset:
        """Every routed path — bounds the endpoint-counter label set."""
        return self._known_paths

    def record_request(self, method: str, endpoint: str, status: int) -> None:
        """Bump the per-endpoint counter behind ``/stats`` and ``/metrics``."""
        key = (method, endpoint, status)
        with self._counts_lock:
            self._request_counts[key] = self._request_counts.get(key, 0) + 1

    def _request_rows(self) -> list:
        """The ``/stats`` ``requests`` block: one row per (method, endpoint, status)."""
        with self._counts_lock:
            counts = sorted(self._request_counts.items())
        return [
            {"method": m, "endpoint": e, "status": s, "count": c}
            for (m, e, s), c in counts
        ]


class CommunityGateway(_ServingRole):
    """One HTTP serving gateway over one community-search service.

    Parameters
    ----------
    service:
        A :class:`~repro.api.service.CommunityService` to front, or a
        :class:`~repro.core.profiled_graph.ProfiledGraph` to build a stock
        service around.
    host, port:
        Bind address. ``port=0`` binds an ephemeral port; read the real
        one from :attr:`address` after :meth:`start`.
    coalesce:
        Merge concurrent ``POST /query`` requests into batch dispatches
        (see :mod:`repro.server.coalescer`). ``POST /batch`` is always a
        direct batch call — it arrives pre-batched.
    coalesce_window, max_batch, max_queue:
        Coalescer tuning; ignored when ``coalesce=False``.
    warm:
        Build the index eagerly in :meth:`start` so the first request
        doesn't pay for it.
    log_requests:
        Emit one access-log line per request on stderr.

    The gateway is a context manager; ``__exit__`` drains and closes.
    """

    #: Serving role advertised by ``/healthz`` — the replication
    #: subclasses override this ("writer" / "replica"); a plain gateway
    #: is a "standalone" that both reads and writes.
    role = "standalone"

    def __init__(
        self,
        service: Union[CommunityService, ProfiledGraph],
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        coalesce: bool = True,
        coalesce_window: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_queue: int = DEFAULT_MAX_QUEUE,
        warm: bool = False,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        log_requests: bool = False,
    ) -> None:
        super().__init__(host, port, {**ROUTES, **self.extra_routes()})
        if isinstance(service, CommunityService):
            self.service = service
        else:
            self.service = CommunityService(service)
        self._coalesce = coalesce
        self._coalesce_window = coalesce_window
        self._max_batch = max_batch
        self._max_queue = max_queue
        self._warm = warm
        self.max_body_bytes = max_body_bytes
        self.log_requests = log_requests
        self.coalescer: Optional[RequestCoalescer] = None
        # repro-lint: disable=version-tagging -- boot-time observation before serving starts; no concurrent mutator exists yet
        self._version_at_start = self.service.pg.version
        self._idempotency_lock = threading.Lock()
        self._idempotency_receipts: "OrderedDict[str, UpdateReceipt]" = OrderedDict()
        # Standing queries: a durable service booted its own (restored from
        # its snapshot and WAL); a memory-only one gets a fresh manager.
        self.subscriptions = self.service.subscriptions
        if self.subscriptions is None:
            self.subscriptions = SubscriptionManager(self.service)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CommunityGateway":
        """Bind, spawn the accept loop, and (optionally) warm the index."""
        if self._server is not None:
            raise RuntimeError(f"{self.role} server already started")
        if self._warm:
            self.service.warm()
        if self._coalesce:
            self.coalescer = RequestCoalescer(
                self.service,
                window=self._coalesce_window,
                max_batch=self._max_batch,
                max_queue=self._max_queue,
            )
        return super().start()

    def close(self, drain: bool = True) -> None:
        """Stop serving. With ``drain`` (default) every accepted request
        is still answered: the listener stops, the coalescer flushes its
        queue, handler threads are joined, the served graph is
        checkpointed when the service has durable storage (folding the
        WAL into a fresh snapshot so the next boot is warm), and only
        then is the service's worker fleet (if any) released. Without
        storage, a drain that would discard applied updates shouts about
        it on stderr — losing mutations must be opt-in, not invisible.
        Idempotent."""
        if not self._stop_accepting():
            return
        if self.coalescer is not None:
            self.coalescer.close(timeout=None if drain else 0.0)
        # Wake parked long-polls *before* joining handler threads (they
        # block in the manager's wait, not in socket reads), but keep the
        # update hook attached so writes still in flight produce their
        # diffs before the checkpoint captures the heads.
        self.subscriptions.disconnect_consumers()
        self._join_handlers()
        self._checkpoint_or_warn(drain)
        self.subscriptions.close()
        self.service.close()

    def _checkpoint_or_warn(self, drain: bool) -> None:
        """Snapshot-on-drain, or the loud data-loss warning (no storage)."""
        storage = getattr(self.service, "storage", None)
        # repro-lint: disable=version-tagging -- shutdown path after drain; the version only feeds the operator warning, tags no result
        version = self.service.pg.version
        if storage is not None:
            if drain:
                self.service.snapshot()  # graph + subscription heads, WAL folded
            return  # no drain: the WAL already holds every applied batch
        if version != self._version_at_start:
            print(
                f"WARNING: discarding {version - self._version_at_start} "
                f"applied update(s) on shutdown — this server has no durable "
                f"storage. Restart will serve graph version "
                f"{self._version_at_start}, not {version}. Pass --data-dir "
                f"(or CommunityService(storage_dir=...)) to persist updates.",
                file=sys.stderr,
                flush=True,
            )

    # ------------------------------------------------------------------
    # request-path hooks (used by repro.server.app)
    # ------------------------------------------------------------------
    def dispatch_query(self, query: Query) -> QueryResponse:
        """Serve one query — through the coalescer when it exists."""
        if self.coalescer is not None:
            return self.coalescer.submit(query)
        return self.service.query(query)

    def apply_updates(self, updates) -> UpdateReceipt:
        """Apply a write batch (the ``POST /update`` hook).

        Subclass seam for the replication roles: a replica overrides this
        to refuse with a redirect, a writer to wake its stream
        subscribers after the durable apply.
        """
        return self.service.apply_updates(updates)

    def apply_updates_idempotent(
        self, updates: Iterable, idempotency_key: Optional[str] = None
    ) -> UpdateReceipt:
        """Apply a write batch at most once per client-supplied key.

        ``POST /update`` routes through here. Without a key this is
        exactly :meth:`apply_updates`. With one, the receipt of the first
        successful apply is remembered in a bounded LRU
        (:data:`IDEMPOTENCY_CACHE_SIZE` entries) and replayed verbatim to
        any retry carrying the same key — so a client whose connection
        died *after* the server applied the batch but *before* the
        response arrived can retry safely instead of double-applying.
        Failed applies cache nothing (the retry gets a fresh attempt),
        and the check-apply-record sequence holds one lock so two racing
        replays of the same key can never both apply.
        """
        if idempotency_key is None:
            return self.apply_updates(updates)
        with self._idempotency_lock:
            cached = self._idempotency_receipts.get(idempotency_key)
            if cached is not None:
                self._idempotency_receipts.move_to_end(idempotency_key)
                return cached
            receipt = self.apply_updates(updates)
            self._idempotency_receipts[idempotency_key] = receipt
            while len(self._idempotency_receipts) > IDEMPOTENCY_CACHE_SIZE:
                self._idempotency_receipts.popitem(last=False)
            return receipt

    def extra_routes(self) -> Dict:
        """Additional ``(method, path) -> handler`` routes (roles override)."""
        return {}

    # ------------------------------------------------------------------
    # observability payloads
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The ``/healthz`` payload: liveness plus the serving vitals."""
        pg = self.service.pg
        payload = {
            "status": "draining" if self._closed.is_set() else "ok",
            "version": __version__,
            "role": self.role,
            "graph_version": pg.version,
            "uptime_seconds": self.uptime_seconds,
            "coalescing": self.coalescer is not None,
            "queue_depth": 0 if self.coalescer is None else self.coalescer.depth,
            "durable": getattr(self.service, "storage", None) is not None,
            "subscriptions": len(self.subscriptions),
        }
        payload.update(self._health_extra())
        return payload

    def _health_extra(self) -> dict:
        """Role-specific ``/healthz`` fields (replication lag, peers, ...)."""
        return {}

    def stats(self) -> dict:
        """The ``/stats`` payload: engine + graph + coalescer + HTTP counters."""
        pg = self.service.pg
        return {
            "server": {
                "role": self.role,
                "uptime_seconds": self.uptime_seconds,
                "coalescing": self.coalescer is not None,
                # Live load signal (not just counters): the router's
                # least-loaded replica picking reads exactly these fields.
                "queue_depth": 0 if self.coalescer is None else self.coalescer.depth,
                "coalescer_config": None if self.coalescer is None else {
                    "window_seconds": self.coalescer.window,
                    "max_batch": self.coalescer.max_batch,
                    "max_queue": self.coalescer.max_queue,
                },
                "parallel_workers": self.service.parallel_workers,
                "requests": self._request_rows(),
            },
            "engine": self.service.stats().to_dict(),
            "coalescer": None if self.coalescer is None else self.coalescer.stats(),
            "subscriptions": self.subscriptions.stats(),
            "graph": {
                "vertices": pg.num_vertices,
                "edges": pg.num_edges,
                "version": pg.version,
            },
            "storage": self._storage_stats(),
        }

    def _storage_stats(self) -> Optional[dict]:
        """The ``/stats`` storage block (``None`` on memory-only sessions)."""
        storage = getattr(self.service, "storage", None)
        if storage is None:
            return None
        boot = self.service.boot_report
        return {
            "directory": str(storage.directory),
            "wal_records": storage.wal.num_records,
            "has_snapshot": storage.has_snapshot(),
            "boot": None if boot is None else boot.to_dict(),
        }

    def metrics_text(self) -> str:
        """The ``/metrics`` payload (Prometheus text format)."""
        pg = self.service.pg
        with self._counts_lock:
            http_counts = list(self._request_counts.items())
        return metrics_mod.render_metrics(
            self.service.stats(),
            {"version": pg.version, "vertices": pg.num_vertices, "edges": pg.num_edges},
            None if self.coalescer is None else self.coalescer.stats(),
            http_counts,
            self.uptime_seconds,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bound = self.url if self._server is not None else "unbound"
        return f"CommunityGateway({bound}, coalesce={self.coalescer is not None})"
