"""The asyncio front-end: one event loop fanning reads across replicas.

:class:`ReplicationRouter` is deliberately **not** a gateway subclass —
it owns no graph and runs no handler threads. One ``asyncio`` event loop
(in a background thread, so the blocking ``start()``/``close()`` surface
matches the gateways) holds every client connection; each request is
parsed with a minimal HTTP/1.1 reader, proxied to a backend over a pooled
keep-alive connection, and the answer relayed back. Thousands of idle
keep-alive clients therefore cost file descriptors, not threads — the
threaded gateways behind the router only ever see in-flight requests.

Routing policy:

* ``POST /update`` → the writer, always. Unreachable writer → ``503``
  with ``Retry-After`` (writes are not failed over; there is one writer).
* ``POST /query`` / ``POST /batch`` → the **least-loaded eligible
  replica** (fewest router-side in-flight requests, then the coalescer
  ``queue_depth`` from health polls). A replica that refuses or drops
  mid-request is marked unhealthy and the request retried on another —
  clients never see a single replica failure. With **no** live replica,
  reads fall back to the writer rather than going dark.
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

import asyncio
import http.client
import json
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidInputError
from repro.replication.protocol import MIN_VERSION_HEADER
from repro.replication.replica import parse_http_url
from repro.server.app import VERSION_HEADER, normalize_path
from repro.server.gateway import DEFAULT_MAX_BODY_BYTES
from repro.version import __version__

__all__ = ["BackendState", "ReplicationRouter"]

#: Response headers relayed from a backend answer to the client.
_RELAY_HEADERS = (
    "content-type",
    "x-repro-graph-version",
    "retry-after",
    "location",
    "allow",
)
#: Sleep between eligibility re-checks while waiting out a min-version.
_WAIT_TICK = 0.05

_ROUTER_METHODS = {
    "/query": ("POST",),
    "/batch": ("POST",),
    "/update": ("POST",),
    "/healthz": ("GET",),
    "/stats": ("GET",),
}


class BackendState:
    """The router's live view of one backend gateway.

    Mutated only from the router's event loop; read (for health/stats
    payloads) from any thread — single attribute loads, so no lock.
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


class ReplicationRouter:
    """Asyncio read/write router over one writer and N replicas.

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
        self.writer = BackendState(writer_url, is_writer=True)
        self.replicas = [BackendState(url, is_writer=False) for url in replica_urls]
        self.min_version_deadline = min_version_deadline
        self.health_interval = health_interval
        self.backend_timeout = backend_timeout
        self._host = host
        self._port = port
        self._bound: Optional[Tuple[str, int]] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._closed = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._started_at: Optional[float] = None
        self._pools: Dict[str, List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]] = {}
        self.counters = {
            "reads_proxied": 0,
            "writes_proxied": 0,
            "failovers": 0,
            "writer_read_fallbacks": 0,
            "min_version_waits": 0,
            "deadline_exceeded": 0,
            "writer_unavailable": 0,
            "connections": 0,
        }
        #: Version produced by the newest write proxied through here —
        #: the fleet-wide read-your-writes watermark, surfaced on
        #: ``/healthz`` so clients can learn a floor without writing.
        self.last_write_version = -1

    # ------------------------------------------------------------------
    # lifecycle (thread-facing)
    # ------------------------------------------------------------------
    def start(self) -> "ReplicationRouter":
        """Spin up the event-loop thread; returns once the port is bound."""
        if self._thread is not None:
            raise RuntimeError("router already started")
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-router", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("router event loop failed to start in time")
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            raise self._startup_error
        return self

    def close(self) -> None:
        """Stop the listener and the loop; idempotent, joins the thread."""
        if self._closed.is_set():
            return
        self._closed.set()
        loop, stop = self._loop, self._stop_async
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`close` is called (the CLI's serve loop)."""
        return self._closed.wait(timeout=timeout)

    def __enter__(self) -> "ReplicationRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` bindings."""
        if self._bound is None:
            raise RuntimeError("router not started")
        return self._bound

    @property
    def url(self) -> str:
        """The bound base URL, e.g. ``http://127.0.0.1:8440``."""
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def uptime_seconds(self) -> float:
        """Seconds since :meth:`start` (0.0 before it)."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    # ------------------------------------------------------------------
    # event loop main
    # ------------------------------------------------------------------
    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._serve())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._client_connected, self._host, self._port
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        sockname = server.sockets[0].getsockname()
        self._bound = (str(sockname[0]), int(sockname[1]))
        health_task = asyncio.ensure_future(self._health_loop())
        self._ready.set()
        try:
            await self._stop_async.wait()
        finally:
            health_task.cancel()
            # Await the cancellation so an in-flight backend connect tears
            # its transport down while the loop is still running —
            # otherwise its finalizer fires after loop.close().
            try:
                await health_task
            except asyncio.CancelledError:
                pass
            server.close()
            await server.wait_closed()
            for pool in self._pools.values():
                while pool:
                    _, writer = pool.pop()
                    writer.close()

    # ------------------------------------------------------------------
    # client side: parse, route, answer
    # ------------------------------------------------------------------
    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: serve keep-alive requests until it ends."""
        self.counters["connections"] += 1
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, length = request
                if length > DEFAULT_MAX_BODY_BYTES:
                    # Refuse before reading, as the gateways behind do: the
                    # limit bounds memory. The unread body poisons the
                    # connection for keep-alive, so close it.
                    await self._write_response(
                        writer,
                        *self._error_answer(
                            413,
                            "payload_too_large",
                            f"request body exceeds {DEFAULT_MAX_BODY_BYTES} bytes",
                            extra=(("Connection", "close"),),
                        ),
                    )
                    break
                body = await reader.readexactly(length) if length > 0 else b""
                status, out_headers, out_body = await self._route(
                    method, path, headers, body
                )
                await self._write_response(writer, status, out_headers, out_body)
                if headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            # Client went away mid-request (or sent garbage past the
            # header limit); nothing to answer, just drop the connection.
            pass
        finally:
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], int]]:
        """Parse one HTTP/1.1 request head; ``None`` on a clean connection end.

        Returns ``(method, target, headers, content_length)`` — the body is
        left unread so the caller can refuse an oversized one first.
        """
        try:
            line = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
        if not line or line in (b"\r\n", b"\n"):
            return None
        parts = line.decode("latin1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = 0
        return method, target, headers, length

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        headers: Sequence[Tuple[str, str]],
        body: bytes,
    ) -> None:
        reason = http.client.responses.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        lines.append(f"Content-Length: {len(body)}")
        lines.append("X-Repro-Router: 1")
        payload = ("\r\n".join(lines) + "\r\n\r\n").encode("latin1") + body
        writer.write(payload)
        await writer.drain()

    def _json_answer(
        self, status: int, payload: dict, extra: Sequence[Tuple[str, str]] = ()
    ) -> Tuple[int, List[Tuple[str, str]], bytes]:
        body = json.dumps(payload, indent=2).encode("utf-8")
        headers = [("Content-Type", "application/json")]
        headers.extend(extra)
        return status, headers, body

    def _error_answer(
        self,
        status: int,
        err_type: str,
        message: str,
        extra: Sequence[Tuple[str, str]] = (),
    ) -> Tuple[int, List[Tuple[str, str]], bytes]:
        return self._json_answer(
            status, {"error": {"type": err_type, "message": message}}, extra
        )

    async def _route(
        self, method: str, target: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, List[Tuple[str, str]], bytes]:
        """Dispatch one request to the writer, a replica, or the router."""
        path = normalize_path(target)
        allowed = _ROUTER_METHODS.get(path)
        if allowed is None:
            return self._error_answer(404, "not_found", f"unknown endpoint {path!r}")
        if method not in allowed:
            return self._error_answer(
                405,
                "method_not_allowed",
                f"{method} not allowed on {path} (allowed: {', '.join(allowed)})",
                extra=(("Allow", ", ".join(allowed)),),
            )
        if path == "/update":
            return await self._proxy_write(headers, body)
        if path in ("/query", "/batch"):
            return await self._proxy_read(path, headers, body)
        if path == "/healthz":
            return self._json_answer(200, self.health())
        return self._json_answer(200, self.stats())

    # ------------------------------------------------------------------
    # proxying
    # ------------------------------------------------------------------
    async def _proxy_write(
        self, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, List[Tuple[str, str]], bytes]:
        """Forward a write to the writer; ``503`` when it is unreachable."""
        backend = self.writer
        try:
            status, r_headers, r_body = await self._forward(
                backend, "POST", "/update", headers, body
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            backend.healthy = False
            self.counters["writer_unavailable"] += 1
            return self._error_answer(
                503,
                "writer_unavailable",
                f"the writer at {backend.url} is unreachable; retry shortly",
                extra=(("Retry-After", "1"),),
            )
        self.counters["writes_proxied"] += 1
        version = r_headers.get(VERSION_HEADER.lower())
        if status == 200 and version is not None:
            produced = int(version)
            backend.version = max(backend.version, produced)
            self.last_write_version = max(self.last_write_version, produced)
        return status, self._relay_headers(backend, r_headers), r_body

    def _eligible_replicas(
        self, min_version: Optional[int], failed: set
    ) -> List[BackendState]:
        return [
            b
            for b in self.replicas
            if b.healthy
            and b.url not in failed
            and (min_version is None or b.version >= min_version)
        ]

    async def _proxy_read(
        self, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, List[Tuple[str, str]], bytes]:
        """Forward a read to the best eligible replica, with failover.

        ``failed`` accumulates replicas that refused or dropped *this*
        request; while waiting out a ``min_version`` it is cleared on
        every tick so a recovering replica gets another chance.
        """
        min_version: Optional[int] = None
        raw_floor = headers.get(MIN_VERSION_HEADER.lower())
        if raw_floor is not None:
            try:
                min_version = int(raw_floor)
            except ValueError:
                return self._error_answer(
                    400,
                    "invalid_input",
                    f"{MIN_VERSION_HEADER} must be an integer, got {raw_floor!r}",
                )
        deadline = time.monotonic() + self.min_version_deadline
        failed: set = set()
        waited = False
        while True:
            candidates = self._eligible_replicas(min_version, failed)
            if not candidates:
                live = [
                    b for b in self.replicas if b.healthy and b.url not in failed
                ]
                if not live and self._writer_can_read(min_version, failed):
                    candidates = [self.writer]
                    self.counters["writer_read_fallbacks"] += 1
                elif min_version is not None and time.monotonic() < deadline:
                    # Healthy-but-stale replicas exist (or failed ones may
                    # recover): wait for replication to catch up.
                    if not waited:
                        self.counters["min_version_waits"] += 1
                        waited = True
                    failed.clear()
                    await asyncio.sleep(_WAIT_TICK)
                    continue
                elif min_version is not None:
                    self.counters["deadline_exceeded"] += 1
                    return self._error_answer(
                        503,
                        "min_version_deadline",
                        f"no replica reached version {min_version} within "
                        f"{self.min_version_deadline:.1f}s",
                        extra=(("Retry-After", "1"),),
                    )
                else:
                    return self._error_answer(
                        503,
                        "no_backend_available",
                        "every replica (and the writer) is unreachable",
                        extra=(("Retry-After", "1"),),
                    )
            backend = min(candidates, key=lambda b: (b.inflight, b.queue_depth))
            backend.inflight += 1
            try:
                status, r_headers, r_body = await self._forward(
                    backend, "POST", path, headers, body
                )
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
                backend.healthy = False
                backend.errors += 1
                failed.add(backend.url)
                self.counters["failovers"] += 1
                continue
            finally:
                backend.inflight -= 1
            version = r_headers.get(VERSION_HEADER.lower())
            if version is not None:
                backend.version = max(backend.version, int(version))
            if status in (429, 503):
                # Overloaded or draining — not this request's backend.
                backend.errors += 1
                failed.add(backend.url)
                self.counters["failovers"] += 1
                continue
            self.counters["reads_proxied"] += 1
            return status, self._relay_headers(backend, r_headers), r_body

    def _writer_can_read(self, min_version: Optional[int], failed: set) -> bool:
        """Whether the writer is a valid last-resort read target."""
        if not self.writer.healthy or self.writer.url in failed:
            return False
        # The writer is the source of truth: any floor a client learned
        # from a real answer is at most the writer's version. An explicit
        # floor *above* what the writer has seen cannot be satisfied.
        return min_version is None or self.writer.version >= min_version

    def _relay_headers(
        self, backend: BackendState, r_headers: Dict[str, str]
    ) -> List[Tuple[str, str]]:
        headers = [
            (name.title(), r_headers[name]) for name in _RELAY_HEADERS if name in r_headers
        ]
        headers.append(("X-Repro-Served-By", backend.url))
        return headers

    # ------------------------------------------------------------------
    # backend connections (pooled, keep-alive)
    # ------------------------------------------------------------------
    async def _forward(
        self,
        backend: BackendState,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One proxied round trip; raises ``OSError``-family on failure."""
        backend.requests += 1
        content_type = headers.get("content-type", "application/json")
        floor = headers.get(MIN_VERSION_HEADER.lower())
        extra = f"{MIN_VERSION_HEADER}: {floor}\r\n" if floor is not None else ""
        request = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {backend.host}:{backend.port}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}\r\n"
        ).encode("latin1") + body
        pool = self._pools.setdefault(backend.url, [])
        for attempt in range(2):
            pooled = bool(pool)
            if pooled:
                reader, writer = pool.pop()
            else:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(backend.host, backend.port),
                    timeout=self.backend_timeout,
                )
            try:
                writer.write(request)
                await writer.drain()
                status, r_headers, r_body, reusable = await asyncio.wait_for(
                    self._read_backend_response(reader), timeout=self.backend_timeout
                )
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
                writer.close()
                if pooled and attempt == 0:
                    continue  # stale kept-alive socket; retry on a fresh one
                raise
            except asyncio.CancelledError:
                writer.close()  # shutdown cancelled a poll mid-flight
                raise
            if reusable:
                pool.append((reader, writer))
            else:
                writer.close()
            return status, r_headers, r_body
        raise ConnectionError(f"unreachable backend {backend.url}")  # pragma: no cover

    async def _read_backend_response(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, str], bytes, bool]:
        """Parse one backend response: status, headers, body, reusability."""
        line = await reader.readline()
        if not line:
            raise ConnectionResetError("backend closed the connection")
        parts = line.decode("latin1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionResetError(f"malformed backend status line {line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
            int(headers.get(VERSION_HEADER.lower()) or 0)
        except ValueError:
            # Callers treat this like any dropped connection: the backend
            # is marked failed and the request fails over.
            raise ConnectionResetError(
                f"malformed backend response headers {headers!r}"
            ) from None
        body = await reader.readexactly(length) if length > 0 else b""
        reusable = headers.get("connection", "").lower() != "close"
        return status, headers, body, reusable

    # ------------------------------------------------------------------
    # background health polling
    # ------------------------------------------------------------------
    async def _poll_backend(self, backend: BackendState) -> None:
        try:
            status, _, body = await self._forward(
                backend, "GET", "/healthz", {}, b""
            )
            payload = json.loads(body)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
            backend.healthy = False
            return
        backend.healthy = status == 200 and payload.get("status") == "ok"
        version = payload.get("graph_version")
        if isinstance(version, int):
            backend.version = max(backend.version, version)
        depth = payload.get("queue_depth")
        if isinstance(depth, int):
            backend.queue_depth = depth

    async def _health_loop(self) -> None:
        """Poll every backend's ``/healthz`` forever (cancelled on close)."""
        while True:
            for backend in [self.writer, *self.replicas]:
                await self._poll_backend(backend)
            await asyncio.sleep(self.health_interval)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The router's ``/healthz`` payload: its own vitals plus the fleet's."""
        replicas = [b.describe() for b in self.replicas]
        return {
            "status": "draining" if self._closed.is_set() else "ok",
            "version": __version__,
            "role": self.role,
            "uptime_seconds": self.uptime_seconds,
            "last_write_version": (
                None if self.last_write_version < 0 else self.last_write_version
            ),
            "writer": self.writer.describe(),
            "replicas": replicas,
            "replicas_healthy": sum(1 for b in replicas if b["healthy"]),
        }

    def stats(self) -> dict:
        """The router's ``/stats`` payload: routing counters and the fleet."""
        return {
            "server": {
                "role": self.role,
                "uptime_seconds": self.uptime_seconds,
                "min_version_deadline": self.min_version_deadline,
                "health_interval": self.health_interval,
                "counters": dict(self.counters),
            },
            "writer": self.writer.describe(),
            "replicas": [b.describe() for b in self.replicas],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bound = self.url if self._bound is not None else "unbound"
        return (
            f"ReplicationRouter({bound}, writer={self.writer.url}, "
            f"replicas={len(self.replicas)})"
        )
