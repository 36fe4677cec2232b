"""HTTP application logic: routing, payload (de)serialisation, error mapping.

The request cycle is transport-free — :func:`handle_request` maps
``(method, path, body, headers)`` to an :class:`HttpResponse` using only
the serving role's public surface (its ``routes()`` table and
``max_body_bytes``) — so every route and every error path is testable
without opening a socket. :class:`GatewayRequestHandler` is the thin
:class:`~http.server.BaseHTTPRequestHandler` adapter the real server
runs. Both serve every role: the gateways route to the table below, the
replication router to its own five proxying entries, and all of them
share the error contract at the end of this docstring. A route handler
is ``(role, body, headers) -> HttpResponse``.

Routes
------
``POST /query``
    One :meth:`Query.to_dict() <repro.api.query.Query.to_dict>` payload in,
    one :meth:`QueryResponse.to_dict()
    <repro.api.response.QueryResponse.to_dict>` envelope out. Goes through
    the request coalescer when the gateway has one.
``POST /batch``
    ``{"queries": [...]}`` (or a bare list) in; ``{"count", "batch_plan",
    "results"}`` out — the planner's inline-vs-parallel decision rides
    along like ``repro batch`` emits it.
``POST /update``
    ``{"updates": [...]}`` (or a bare list) of
    :class:`~repro.engine.updates.GraphUpdate` mappings in; the
    :class:`~repro.engine.updates.UpdateReceipt` out. Applied through the
    mutation-safe engine path (versioned cache invalidation + incremental
    index maintenance).
``POST /subscribe``
    Register a standing query (:class:`~repro.api.subscription.Subscription`
    payload); answers the subscription (with its server-assigned id when
    the client sent none) plus the ``reset`` snapshot diff — event id 1,
    the baseline every later diff composes onto.
``POST /unsubscribe``
    ``{"id": ...}``; drops the standing query; a poll parked on it answers 404.
``POST /subscribe/poll``
    ``{"id", "last_event_id"?, "timeout"?}`` — long-poll for diffs after
    ``last_event_id``, blocking up to ``timeout`` seconds (bounded by
    :data:`MAX_POLL_TIMEOUT`). An id behind the retained window answers a
    single ``reset`` re-baseline diff. A draining server answers at once,
    with an empty list when the reader is caught up.
``GET /healthz``, ``GET /stats``, ``GET /metrics``
    Liveness, JSON counters, Prometheus text.

Error contract (all JSON, ``{"error": {"type", "message"}}``): malformed
JSON, invalid fields or a malformed ``Content-Length`` → 400; unknown
vertex → 404; unknown route → 404; wrong verb on a known route → 405
(with ``Allow``); body too large → 413;
admission-control overflow → 429 (with ``Retry-After``); draining → 503
(with ``Retry-After``); anything unexpected → 500.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.api.query import Query
from repro.api.subscription import Subscription
from repro.engine.updates import GraphUpdate
from repro.errors import InvalidInputError, ReproError, VertexNotFoundError
from repro.server.coalescer import CoalescerClosedError, QueueFullError
from repro.subscribe import SubscriptionNotFoundError
from repro.version import __version__

__all__ = [
    "HttpResponse",
    "handle_request",
    "GatewayRequestHandler",
    "ROUTES",
    "UNKNOWN_ENDPOINT",
    "VERSION_HEADER",
    "MAX_POLL_TIMEOUT",
    "DEFAULT_POLL_TIMEOUT",
    "WriteRedirectError",
    "endpoint_label",
    "normalize_path",
]

_JSON = "application/json"
#: Prometheus text exposition format.
_METRICS_TEXT = "text/plain; version=0.0.4; charset=utf-8"

#: Ceiling on a ``/subscribe/poll`` block — long enough to amortise the
#: round trip, short enough that a vanished client frees its handler
#: thread promptly.
MAX_POLL_TIMEOUT = 60.0
DEFAULT_POLL_TIMEOUT = 25.0


@dataclass(frozen=True)
class HttpResponse:
    """One materialised HTTP answer (status, body, extra headers).

    A response with ``stream`` set is sent with chunked transfer encoding
    instead of ``body``: the factory is invoked once, inside the handler
    thread, and each yielded ``bytes`` chunk is flushed to the client as
    it is produced — the shape of the replication WAL stream, where the
    response outlives the request by design.
    """

    status: int
    body: bytes
    content_type: str = _JSON
    headers: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)
    #: Zero-arg factory of a ``bytes`` iterator; mutually exclusive with
    #: a non-empty ``body``.
    stream: Optional[Callable[[], Iterable[bytes]]] = None


def _json_response(status: int, payload: dict, headers: Tuple = ()) -> HttpResponse:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return HttpResponse(status=status, body=body, headers=tuple(headers))


def _error(status: int, err_type: str, message: str, headers: Tuple = ()) -> HttpResponse:
    return _json_response(
        status, {"error": {"type": err_type, "message": message}}, headers=headers
    )


def _too_large(limit: int, headers: Tuple = ()) -> HttpResponse:
    return _error(
        413, "payload_too_large", f"request body exceeds {limit} bytes", headers=headers
    )


def _retry_after_header(seconds: float) -> Tuple[Tuple[str, str], ...]:
    """``Retry-After`` takes integer seconds; round up so 0 never appears."""
    return (("Retry-After", str(max(1, int(seconds + 0.999)))),)


def _parse_json(body: bytes):
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"request body is not valid JSON: {exc}") from exc


def _items_payload(payload, key: str) -> list:
    """Unwrap ``{key: [...]}`` (or accept a bare list) into the item list."""
    if isinstance(payload, list):
        items = payload
    elif isinstance(payload, dict):
        if set(payload) - {key}:
            raise InvalidInputError(
                f"unknown fields {sorted(set(payload) - {key})}; "
                f"expected {{'{key}': [...]}} or a bare list"
            )
        items = payload.get(key)
    else:
        raise InvalidInputError(
            f"expected {{'{key}': [...]}} or a bare list, got {type(payload).__name__}"
        )
    if not isinstance(items, list):
        raise InvalidInputError(f"'{key}' must be a list, got {type(items).__name__}")
    if not items:
        raise InvalidInputError(f"'{key}' must not be empty")
    return items


# ----------------------------------------------------------------------
# endpoint handlers: (gateway, body, headers) -> HttpResponse
# ----------------------------------------------------------------------
#: Response header carrying the graph version an answer reflects — lets
#: proxies (the replication router) track replica freshness from headers
#: alone, without parsing JSON bodies.
VERSION_HEADER = "X-Repro-Graph-Version"


def _handle_query(gateway, body: bytes, headers) -> HttpResponse:
    query = Query.from_dict(_parse_json(body))
    response = gateway.dispatch_query(query)
    return _json_response(
        200,
        response.to_dict(),
        headers=((VERSION_HEADER, str(response.graph_version)),),
    )


def _handle_batch(gateway, body: bytes, headers) -> HttpResponse:
    items = _items_payload(_parse_json(body), "queries")
    queries = [Query.from_dict(item) for item in items]
    plan = gateway.service.plan_batch(len(queries))
    responses = gateway.service.batch(queries)
    return _json_response(
        200,
        {
            "count": len(responses),
            "batch_plan": plan.to_dict(),
            "results": [r.to_dict() for r in responses],
        },
        headers=(
            (VERSION_HEADER, str(min(r.graph_version for r in responses))),
        ),
    )


def _handle_update(gateway, body: bytes, headers) -> HttpResponse:
    payload = _parse_json(body)
    idempotency_key = None
    if isinstance(payload, dict) and "idempotency_key" in payload:
        payload = dict(payload)
        idempotency_key = payload.pop("idempotency_key")
        if not isinstance(idempotency_key, str) or not idempotency_key:
            raise InvalidInputError("idempotency_key must be a non-empty string")
    items = _items_payload(payload, "updates")
    updates = [GraphUpdate.coerce(item) for item in items]
    receipt = gateway.apply_updates_idempotent(
        updates, idempotency_key=idempotency_key
    )
    return _json_response(
        200,
        {"receipt": receipt.to_dict(), "graph_version": receipt.version},
        headers=((VERSION_HEADER, str(receipt.version)),),
    )


def _require_object(payload, what: str) -> dict:
    if not isinstance(payload, dict):
        raise InvalidInputError(
            f"{what} payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _subscription_ref(payload: dict) -> Tuple[str, Optional[int]]:
    """``(id, last_event_id)`` out of a poll or unsubscribe payload."""
    sub_id = payload.get("id")
    if not isinstance(sub_id, str) or not sub_id:
        raise InvalidInputError("'id' must be a non-empty subscription id string")
    last_event_id = payload.get("last_event_id")
    if last_event_id is not None:
        if not isinstance(last_event_id, int) or isinstance(last_event_id, bool):
            raise InvalidInputError(
                f"'last_event_id' must be an integer, got {last_event_id!r}"
            )
        if last_event_id < 0:
            raise InvalidInputError("'last_event_id' must be >= 0")
    return sub_id, last_event_id


def _handle_subscribe(gateway, body: bytes, headers) -> HttpResponse:
    sub = Subscription.from_dict(_require_object(_parse_json(body), "subscription"))
    snapshot = gateway.subscriptions.register(sub)
    return _json_response(
        200,
        {"subscription": sub.to_dict(), "snapshot": snapshot.to_dict()},
        headers=((VERSION_HEADER, str(snapshot.graph_version)),),
    )


def _handle_unsubscribe(gateway, body: bytes, headers) -> HttpResponse:
    payload = _require_object(_parse_json(body), "unsubscribe")
    sub_id, _ = _subscription_ref(payload)
    if not gateway.subscriptions.unregister(sub_id):
        raise SubscriptionNotFoundError(sub_id)
    return _json_response(200, {"unsubscribed": sub_id})


def _handle_subscribe_poll(gateway, body: bytes, headers) -> HttpResponse:
    payload = _require_object(_parse_json(body), "poll")
    extra = set(payload) - {"id", "last_event_id", "timeout"}
    if extra:
        raise InvalidInputError(f"unknown poll fields {sorted(extra)}")
    sub_id, last_event_id = _subscription_ref(payload)
    timeout = payload.get("timeout", DEFAULT_POLL_TIMEOUT)
    if not isinstance(timeout, (int, float)) or isinstance(timeout, bool):
        raise InvalidInputError(f"'timeout' must be a number, got {timeout!r}")
    timeout = min(max(0.0, float(timeout)), MAX_POLL_TIMEOUT)
    events = gateway.subscriptions.poll(sub_id, last_event_id, timeout=timeout)
    headers: Tuple = ()
    if events:
        headers = ((VERSION_HEADER, str(events[-1].graph_version)),)
    return _json_response(
        200,
        {
            "subscription_id": sub_id,
            "count": len(events),
            "events": [event.to_dict() for event in events],
        },
        headers=headers,
    )


def _handle_healthz(gateway, body: bytes, headers) -> HttpResponse:
    return _json_response(200, gateway.health())


def _handle_stats(gateway, body: bytes, headers) -> HttpResponse:
    return _json_response(200, gateway.stats())


def _handle_metrics(gateway, body: bytes, headers) -> HttpResponse:
    return HttpResponse(
        status=200,
        body=gateway.metrics_text().encode("utf-8"),
        content_type=_METRICS_TEXT,
    )


#: ``(method, path) -> handler``; the routing table every gateway starts
#: from. Role gateways (see :mod:`repro.replication`) extend it via
#: ``CommunityGateway.extra_routes``.
ROUTES: Dict[Tuple[str, str], Callable] = {
    ("POST", "/query"): _handle_query,
    ("POST", "/batch"): _handle_batch,
    ("POST", "/update"): _handle_update,
    ("POST", "/subscribe"): _handle_subscribe,
    ("POST", "/unsubscribe"): _handle_unsubscribe,
    ("POST", "/subscribe/poll"): _handle_subscribe_poll,
    ("GET", "/healthz"): _handle_healthz,
    ("GET", "/stats"): _handle_stats,
    ("GET", "/metrics"): _handle_metrics,
}

_KNOWN_PATHS = {path for _, path in ROUTES}

#: Counter bucket for paths outside the routing table, so endpoint
#: counters (and /metrics label cardinality) stay bounded under scanners.
UNKNOWN_ENDPOINT = "(unknown)"


class WriteRedirectError(ReproError):
    """A write reached a read-only gateway; the writer lives elsewhere.

    Mapped to ``307 Temporary Redirect`` with a ``Location`` header, so a
    well-behaved HTTP client can replay the POST against the writer (307
    preserves the method and body, unlike 302).
    """

    def __init__(self, location: str) -> None:
        super().__init__(
            f"this gateway serves reads only; send writes to {location}"
        )
        self.location = location


def normalize_path(path: str) -> str:
    """Canonical routing form: query string stripped, trailing ``/`` folded."""
    return path.split("?", 1)[0].rstrip("/") or "/"


def endpoint_label(path: str, known_paths: Optional[frozenset] = None) -> str:
    """The bounded counter label for a request path.

    ``known_paths`` widens the recognised set for gateways with extra
    routes; bare calls label against the base table only.
    """
    normalized = normalize_path(path)
    known = _KNOWN_PATHS if known_paths is None else known_paths
    return normalized if normalized in known else UNKNOWN_ENDPOINT


def handle_request(
    gateway, method: str, path: str, body: bytes, headers: Optional[Mapping] = None
) -> HttpResponse:
    """Route one request and map every failure mode to its status code.

    ``gateway`` is any serving role (standalone, writer, replica or the
    replication router): routing only needs its ``routes()`` table and
    ``max_body_bytes``. ``headers`` are the request headers, handed to
    the route handler as-is; in-process callers may leave them out.
    """
    path = normalize_path(path)
    if len(body) > gateway.max_body_bytes:
        return _too_large(gateway.max_body_bytes)
    routes = gateway.routes()
    handler = routes.get((method, path))
    if handler is None:
        allowed = sorted(m for m, p in routes if p == path)
        if allowed:
            return _error(
                405,
                "method_not_allowed",
                f"{method} not allowed on {path} (allowed: {', '.join(allowed)})",
                headers=(("Allow", ", ".join(allowed)),),
            )
        return _error(404, "not_found", f"unknown endpoint {path!r}")
    try:
        return handler(gateway, body, {} if headers is None else headers)
    except WriteRedirectError as exc:
        return _error(
            307,
            "not_writer",
            str(exc),
            headers=(("Location", exc.location),),
        )
    except QueueFullError as exc:
        return _error(
            429,
            "queue_full",
            str(exc),
            headers=_retry_after_header(exc.retry_after),
        )
    except CoalescerClosedError as exc:
        return _error(503, "draining", str(exc), headers=_retry_after_header(1.0))
    except SubscriptionNotFoundError as exc:
        return _error(404, "subscription_not_found", str(exc))
    except VertexNotFoundError as exc:
        return _error(404, "vertex_not_found", str(exc))
    except InvalidInputError as exc:
        return _error(400, "invalid_input", str(exc))
    except Exception as exc:  # noqa: BLE001 - the wire boundary
        return _error(500, "internal", f"{type(exc).__name__}: {exc}")


class GatewayRequestHandler(BaseHTTPRequestHandler):
    """The socket-facing adapter around :func:`handle_request`.

    HTTP/1.1 with explicit ``Content-Length`` on every response, so client
    connections can be reused across requests (the bench and the thin
    client both keep one connection per thread). Access logging is off by
    default; construct the gateway with ``log_requests=True`` for one line
    per request on stderr.
    """

    protocol_version = "HTTP/1.1"
    server_version = f"repro-server/{__version__}"
    #: POST bodies arrive as a second segment after the headers; without
    #: TCP_NODELAY the reply can stall ~40 ms behind a delayed ACK.
    disable_nagle_algorithm = True
    #: Buffer the response so headers and a small body leave in one send
    #: (the request cycle flushes after every response and every streamed
    #: chunk); unbuffered, each costs the peer a second read.
    wbufsize = -1
    #: Idle keep-alive connections drop after this many seconds, bounding
    #: how long a graceful close can wait on a silent client.
    timeout = 10

    def _dispatch(self, method: str) -> None:
        gateway = self.server.gateway  # type: ignore[attr-defined]
        announced = self.headers.get("Content-Length", "0").strip()
        length = int(announced) if announced.isascii() and announced.isdigit() else -1
        if 0 <= length <= gateway.max_body_bytes:
            body = self.rfile.read(length) if length > 0 else b""
            response = handle_request(gateway, method, self.path, body, self.headers)
        else:
            # Refuse before reading: the limit must bound memory, not just
            # parsing. The unread body poisons the connection for keep-alive
            # (it would be parsed as the next request line), so close it.
            close = (("Connection", "close"),)
            if length < 0:
                response = _error(
                    400,
                    "invalid_input",
                    f"Content-Length must be a non-negative integer, got {announced!r}",
                    headers=close,
                )
            else:
                response = _too_large(gateway.max_body_bytes, headers=close)
            self.close_connection = True
        try:
            if response.stream is not None:
                self._send_stream(response)
            else:
                self.send_response(response.status)
                self.send_header("Content-Type", response.content_type)
                self.send_header("Content-Length", str(len(response.body)))
                for key, value in response.headers:
                    self.send_header(key, value)
                self.end_headers()
                self.wfile.write(response.body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-response; nothing to salvage
        gateway.record_request(
            method, endpoint_label(self.path, gateway.known_paths()), response.status
        )

    def _send_stream(self, response: HttpResponse) -> None:
        """Send a chunked-transfer response, flushing each chunk as it comes.

        The chunk producer runs in this handler thread for as long as it
        yields (a replication stream runs until the subscriber drops or the
        writer drains); the connection closes when it ends, so subscribers
        treat EOF as "re-subscribe".
        """
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        for key, value in response.headers:
            self.send_header(key, value)
        self.end_headers()
        self.close_connection = True
        for chunk in response.stream():
            if not chunk:
                continue
            self.wfile.write(f"{len(chunk):x}\r\n".encode("ascii"))
            self.wfile.write(chunk)
            self.wfile.write(b"\r\n")
            self.wfile.flush()
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Route a GET through :func:`handle_request`."""
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Route a POST through :func:`handle_request`."""
        self._dispatch("POST")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Access log line; silent unless the gateway enables logging."""
        if self.server.gateway.log_requests:  # pragma: no cover
            super().log_message(format, *args)
