"""repro.server — the HTTP/JSON serving gateway over the community service.

PRs 1–4 built every layer below the wire: the batched engine, mutation-safe
indexes, the serialisable :mod:`repro.api` facade and the process-parallel
fleet. This package is the wire. It is stdlib-only, like everything else:

* :class:`~repro.server.gateway.CommunityGateway` — server lifecycle:
  binds a threading HTTP server around one
  :class:`~repro.api.service.CommunityService`, exposes ``POST /query``,
  ``POST /batch``, ``POST /update`` and the ``GET /healthz`` / ``/stats``
  / ``/metrics`` observability endpoints, and drains gracefully on close;
* :class:`~repro.server.coalescer.RequestCoalescer` — the headline
  serving mechanism: concurrent single queries arriving within a short
  window (or past a queue-depth threshold) merge into one batch dispatch,
  so the engine's dedup, the planner's batch rule and the worker fleet
  apply to *independent clients*; a bounded queue refuses overload with
  429 + ``Retry-After``;
* :mod:`repro.server.app` — transport-free routing and error mapping
  (every route testable without a socket); with the gateway module's
  server and lifecycle base it is the one HTTP layer every serving role
  runs on, the replication router included;
* :class:`~repro.server.client.ServerClient` — the thin stdlib client
  used by tests, examples and the latency benchmark;
* :mod:`repro.server.metrics` — Prometheus text rendering of the
  engine/coalescer/gateway counters.

Front doors: ``repro serve`` on the command line,
``CommunityGateway(pg, port=0)`` in code, and
``benchmarks/bench_server_latency.py`` for the coalescing acceptance gate.
"""

from repro.server.app import HttpResponse, handle_request
from repro.server.client import ServerClient, ServerError
from repro.server.coalescer import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    DEFAULT_WINDOW_SECONDS,
    CoalescerClosedError,
    QueueFullError,
    RequestCoalescer,
)
from repro.server.gateway import DEFAULT_HOST, DEFAULT_PORT, CommunityGateway
from repro.server.metrics import render_metrics

__all__ = [
    "CommunityGateway",
    "RequestCoalescer",
    "ServerClient",
    "ServerError",
    "QueueFullError",
    "CoalescerClosedError",
    "HttpResponse",
    "handle_request",
    "render_metrics",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_WINDOW_SECONDS",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_QUEUE",
]
