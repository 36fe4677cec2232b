"""A thin stdlib HTTP client for the serving gateway.

:class:`ServerClient` speaks the wire protocol of :mod:`repro.server.app`
and hands back the same API objects the in-process service produces —
``client.query(...)`` returns a real
:class:`~repro.api.response.QueryResponse` (rebuilt via ``from_dict``, so
everything except the live ``result`` attribute survives the trip). Tests,
examples and the latency benchmark all drive the server through this one
class, so the protocol has exactly one client-side implementation.

One client holds one persistent HTTP/1.1 connection and is **not**
thread-safe — give each thread its own instance (connections are cheap;
the benchmark does exactly that). Non-2xx answers raise
:class:`ServerError` carrying the decoded error envelope, the HTTP status
and, for 429/503, the server's ``Retry-After`` hint.
"""

from __future__ import annotations

import email.utils
import http.client
import json
import random
import socket
import time
import uuid
from datetime import datetime, timezone
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.api.query import Query, QueryBuilder
from repro.api.response import QueryResponse
from repro.api.subscription import CommunityDiff, Subscription
from repro.engine.updates import GraphUpdate
from repro.errors import ReproError
from repro.server.app import DEFAULT_POLL_TIMEOUT, MAX_POLL_TIMEOUT

__all__ = ["ServerClient", "ServerError"]

QueryLike = Union[Query, QueryBuilder, dict]
UpdateLike = Union[GraphUpdate, tuple, dict]


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Seconds to wait from a ``Retry-After`` header, or ``None``.

    RFC 9110 allows either non-negative delta-seconds or an HTTP-date;
    both are accepted (a date in the past clamps to 0). Anything else —
    a proxy mangling the header must not crash the client — reads as
    absent rather than raising.
    """
    if value is None:
        return None
    text = value.strip()
    try:
        seconds = float(text)
    except ValueError:
        try:
            when = email.utils.parsedate_to_datetime(text)
        except (TypeError, ValueError):
            return None
        if when is None:
            return None
        if when.tzinfo is None:
            when = when.replace(tzinfo=timezone.utc)
        seconds = (when - datetime.now(timezone.utc)).total_seconds()
    return max(0.0, seconds)


class ServerError(ReproError):
    """A non-2xx gateway answer, with the decoded error envelope attached.

    Redirects (a write sent to a read-only replica answers ``307``) also
    land here, with the target in :attr:`location` — the client never
    follows them silently, because replaying a POST is the caller's call.
    """

    def __init__(
        self,
        status: int,
        error_type: str,
        message: str,
        retry_after: Optional[float] = None,
        location: Optional[str] = None,
    ) -> None:
        super().__init__(f"HTTP {status} [{error_type}]: {message}")
        self.status = status
        self.error_type = error_type
        self.retry_after = retry_after
        self.location = location


def _open_connection(host: str, port: int, timeout: float) -> http.client.HTTPConnection:
    """A connected keep-alive connection with Nagle off.

    Request headers and body go out as separate writes; with Nagle on, the
    body can sit behind the peer's delayed ACK for tens of milliseconds —
    dwarfing the query itself.
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


class ServerClient:
    """Client for one gateway at ``host:port`` (see module docstring).

    Usable as a context manager; :meth:`close` drops the connection.

    ``retries`` bounds *extra* attempts after transient failures — a
    reset/refused connection or an HTTP 503 (a replica draining, a
    coalescer mid-restart). Each retry backs off exponentially from
    ``backoff`` (capped at ``max_backoff``) with full jitter, honouring a
    503's ``Retry-After`` hint when it is shorter. ``retries=0`` (the
    default) keeps the historical behaviour: one free immediate reconnect
    on a stale kept-alive connection, and every HTTP error surfaced
    as-is. The router and cluster tooling run with retries enabled so one
    replica restart never surfaces as a client error.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        retries: int = 0,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self._conn: Optional[http.client.HTTPConnection] = None

    def _retry_delay(self, attempt: int, hint: Optional[float] = None) -> float:
        """Backoff for retry number ``attempt`` (1-based), with full jitter."""
        ceiling = min(self.max_backoff, self.backoff * (2 ** (attempt - 1)))
        if hint is not None:
            ceiling = min(ceiling, hint)
        return random.uniform(0.0, ceiling) if ceiling > 0 else 0.0

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = _open_connection(self.host, self.port, self.timeout)
        return self._conn

    def _request(self, method: str, path: str, payload=None, extra_headers=None):
        """One round trip; returns ``(status, headers, decoded body)``.

        Always retries once, immediately, on a stale kept-alive connection
        (the server may have closed it between requests). With
        ``retries=N``, connection failures and 503 answers get up to N
        further attempts behind exponential backoff with jitter;
        everything else raises :class:`ServerError` straight away.

        Replaying after a connection error is only safe because every
        endpoint is either read-only or deduplicated: ``POST /update``
        payloads carry the idempotency key :meth:`update` generates, so a
        request whose connection died between the server-side apply and
        the response replays to the original receipt, not a second apply.
        """
        body = None
        headers = dict(extra_headers or {})
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn_failures = 0
        status_retries = 0
        while True:
            conn = None
            try:
                conn = self._connection()
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, ConnectionError, BrokenPipeError):
                self.close()
                conn_failures += 1
                if conn_failures == 1:
                    continue  # free reconnect: the kept-alive socket went stale
                if conn_failures > self.retries + 1:
                    raise
                time.sleep(self._retry_delay(conn_failures - 1))
                continue
            if response.status == 503 and status_retries < self.retries:
                status_retries += 1
                hint = _parse_retry_after(response.getheader("Retry-After"))
                time.sleep(self._retry_delay(status_retries, hint=hint))
                continue
            break
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            decoded = json.loads(raw.decode("utf-8"))
        else:
            decoded = raw.decode("utf-8")
        if response.status >= 300:
            error = decoded.get("error", {}) if isinstance(decoded, dict) else {}
            raise ServerError(
                response.status,
                error.get("type", "unknown"),
                error.get("message", str(decoded)),
                retry_after=_parse_retry_after(response.getheader("Retry-After")),
                location=response.getheader("Location"),
            )
        return response.status, response, decoded

    def close(self) -> None:
        """Drop the persistent connection (reopened on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def query(
        self,
        query: QueryLike,
        min_version: Optional[int] = None,
        **overrides,
    ) -> QueryResponse:
        """``POST /query`` — one request, one envelope.

        Accepts a :class:`~repro.api.query.Query`, a builder, or a payload
        mapping; keyword overrides patch the query like
        :meth:`CommunityService.query <repro.api.service.CommunityService.query>`.
        ``min_version`` sets the read-your-writes floor (the
        ``X-Repro-Min-Version`` header) — meaningful when the far end is a
        replication router, ignored by plain gateways.
        """
        coerced = Query.coerce(query)
        if overrides:
            coerced = coerced.replace(**overrides)
        return QueryResponse.from_dict(
            self.query_raw(coerced.to_dict(), min_version=min_version)
        )

    def query_raw(self, payload: dict, min_version: Optional[int] = None) -> dict:
        """``POST /query`` with a raw payload; the raw envelope back."""
        headers = None
        if min_version is not None:
            headers = {"X-Repro-Min-Version": str(min_version)}
        _, _, decoded = self._request("POST", "/query", payload, extra_headers=headers)
        return decoded

    def batch(self, queries: Iterable[QueryLike]) -> List[QueryResponse]:
        """``POST /batch`` — answers align with the input order."""
        decoded = self.batch_raw(
            {"queries": [Query.coerce(q).to_dict() for q in queries]}
        )
        return [QueryResponse.from_dict(item) for item in decoded["results"]]

    def batch_raw(self, payload: dict) -> dict:
        """``POST /batch`` with a raw payload; includes ``batch_plan``."""
        _, _, decoded = self._request("POST", "/batch", payload)
        return decoded

    def update(
        self,
        updates: Iterable[UpdateLike],
        idempotency_key: Optional[str] = None,
    ) -> dict:
        """``POST /update`` — apply graph edits; the receipt dict back.

        Every call carries an ``idempotency_key`` (a fresh UUID unless the
        caller pins one). ``POST /update`` is the one non-idempotent
        endpoint, and the transport retries after *any* connection error —
        including a connection that died after the server applied the
        batch but before the response made it back. The key lets the
        gateway recognise such a replay and return the original receipt
        instead of applying the batch twice.
        """
        payload = {
            "updates": [GraphUpdate.coerce(item).to_dict() for item in updates],
            "idempotency_key": idempotency_key or uuid.uuid4().hex,
        }
        _, _, decoded = self._request("POST", "/update", payload)
        return decoded

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    def subscribe(
        self, subscription: Union[Subscription, dict, "str"], **fields
    ) -> Tuple[Subscription, CommunityDiff]:
        """``POST /subscribe`` — register a standing query.

        Accepts a :class:`~repro.api.subscription.Subscription`, a payload
        mapping, or a bare query vertex with keyword fields (``k=``,
        ``method=``, ``cohesion=``, ``id=``). Returns the registered
        subscription (carrying its server-confirmed id) and the ``reset``
        snapshot diff — the full membership baseline at the registration
        version.
        """
        if isinstance(subscription, Subscription):
            payload = subscription.to_dict()
        elif isinstance(subscription, dict):
            payload = dict(subscription)
        else:
            payload = {"vertex": subscription}
        payload.update(fields)
        if not payload.get("id"):
            payload.pop("id", None)
        _, _, decoded = self._request("POST", "/subscribe", payload)
        return (
            Subscription.from_dict(decoded["subscription"]),
            CommunityDiff.from_dict(decoded["snapshot"]),
        )

    def unsubscribe(self, sub_id: str) -> dict:
        """``POST /unsubscribe`` — drop a standing query by id."""
        _, _, decoded = self._request("POST", "/unsubscribe", {"id": sub_id})
        return decoded

    def poll(
        self,
        sub_id: str,
        last_event_id: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> List[CommunityDiff]:
        """``POST /subscribe/poll`` — long-poll for diffs past a cursor.

        Blocks server-side up to ``timeout`` seconds (the server bounds
        it); keep it comfortably under this client's socket timeout.
        """
        payload: dict = {"id": sub_id}
        if last_event_id is not None:
            payload["last_event_id"] = int(last_event_id)
        if timeout is not None:
            payload["timeout"] = timeout
        _, _, decoded = self._request("POST", "/subscribe/poll", payload)
        return [CommunityDiff.from_dict(item) for item in decoded["events"]]

    def subscribe_stream(
        self, sub_id: str, last_event_id: Optional[int] = None
    ) -> Iterator[CommunityDiff]:
        """Follow a subscription: a resumable generator of diffs.

        A loop of :meth:`poll` calls, each carrying the last delivered
        event id, so diffs arrive in event order with no gap and no
        duplicate; a cursor behind the server's retained window yields one
        ``reset`` re-baseline diff instead. Each poll blocks for half this
        client's socket timeout and retries through the same budget as
        every other request, so the generator works through the
        replication router as well as against one gateway. It ends with a
        :class:`ServerError`, never a silent hang: 404 when the server
        drops the subscription, and 503 ``stream_ended`` when the server
        stays unreachable or keeps answering without blocking (it is
        draining) past the retry budget.
        """
        cursor = 0 if last_event_id is None else int(last_event_id)
        wait = (
            DEFAULT_POLL_TIMEOUT if self.timeout is None
            else min(self.timeout / 2, MAX_POLL_TIMEOUT)
        )
        idle = 0
        while True:
            started = time.monotonic()
            try:
                events = self.poll(sub_id, cursor, timeout=wait)
            except (OSError, http.client.HTTPException) as exc:
                self.close()
                raise ServerError(
                    503, "stream_ended",
                    f"subscription {sub_id!r}: the server is unreachable ({exc})",
                ) from exc
            for diff in events:
                cursor = diff.event_id
                yield diff
            if events or time.monotonic() - started >= wait / 2:
                idle = 0
                continue
            # An empty answer that did not block: the server is draining.
            idle += 1
            if idle > self.retries + 1:
                raise ServerError(
                    503, "stream_ended",
                    f"subscription {sub_id!r}: polls keep returning without "
                    f"events; the server is likely draining",
                )
            time.sleep(self._retry_delay(idle))

    def healthz(self) -> dict:
        """``GET /healthz`` — liveness and serving vitals."""
        _, _, decoded = self._request("GET", "/healthz")
        return decoded

    def stats(self) -> dict:
        """``GET /stats`` — engine/coalescer/HTTP counters as JSON."""
        _, _, decoded = self._request("GET", "/stats")
        return decoded

    def metrics(self) -> str:
        """``GET /metrics`` — the Prometheus text document."""
        _, _, decoded = self._request("GET", "/metrics")
        return decoded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServerClient(http://{self.host}:{self.port})"
