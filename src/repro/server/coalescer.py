"""The request coalescer — independent clients merged into one batch dispatch.

Per-request serving wastes the machinery PRs 1–4 built: the engine's
in-batch deduplication, the planner's batch rule and the worker fleet all
need *batches*, but HTTP clients arrive one query at a time. The
:class:`RequestCoalescer` closes that gap: concurrent single queries that
arrive within a short **window** (or pile past a **queue-depth threshold**)
are merged into one :meth:`~repro.api.service.CommunityService.batch`
call, so sixteen independent clients asking four distinct hot queries cost
four computations, not sixteen — and on a ``parallel=N`` service the merged
batch can shard across the worker fleet, which no single request ever
could.

Admission control is part of the contract: the queue is bounded, and a
submit against a full queue raises :class:`QueueFullError` (the gateway
maps it to ``429`` with a ``Retry-After`` header) instead of letting
latency grow without bound. :meth:`RequestCoalescer.close` drains: queued
requests are still answered, new ones are refused with
:class:`CoalescerClosedError` (``503`` on the wire).

The coalescer is transport-agnostic — it speaks :class:`~repro.api.Query`
in and :class:`~repro.api.QueryResponse` out — so it is reusable by any
front end, not just HTTP.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, List, Optional

from repro.api.query import Query
from repro.api.response import QueryResponse
from repro.api.service import CommunityService
from repro.errors import ReproError, VertexNotFoundError

__all__ = [
    "RequestCoalescer",
    "QueueFullError",
    "CoalescerClosedError",
    "DEFAULT_WINDOW_SECONDS",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_QUEUE",
]

#: How long the dispatcher holds the first request of a batch open for
#: company. Latency cost of coalescing == at most one window.
DEFAULT_WINDOW_SECONDS = 0.005

#: Queue depth that triggers dispatch before the window expires, and the
#: largest batch handed to the service in one call.
DEFAULT_MAX_BATCH = 64

#: Admission-control bound: submits past this depth are refused (429).
DEFAULT_MAX_QUEUE = 256


class QueueFullError(ReproError):
    """The coalescer's admission queue is full; retry after a short wait."""

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(
            f"request queue is full ({depth} pending); retry after "
            f"{retry_after:.3f}s"
        )
        self.depth = depth
        self.retry_after = retry_after


class CoalescerClosedError(ReproError):
    """The coalescer is draining or closed and accepts no new requests."""


class _Pending:
    """One in-flight request: the query, and a slot its answer lands in."""

    __slots__ = ("query", "event", "response", "error")

    def __init__(self, query: Query) -> None:
        self.query = query
        self.event = threading.Event()
        self.response: Optional[QueryResponse] = None
        self.error: Optional[BaseException] = None


class RequestCoalescer:
    """Merge concurrent single queries into batched service dispatches.

    Parameters
    ----------
    service:
        The :class:`~repro.api.service.CommunityService` that answers the
        merged batches.
    window:
        Seconds the dispatcher waits, after the first request of a batch
        arrives, for more requests to coalesce with it. The worst-case
        latency overhead of coalescing is one window.
    max_batch:
        Dispatch immediately once this many requests are queued, and never
        hand the service a larger batch.
    max_queue:
        Admission bound; a submit finding this many requests already queued
        raises :class:`QueueFullError`.

    Thread model: callers block in :meth:`submit` (one per handler thread);
    a single daemon dispatcher thread owns batching and calls
    ``service.batch``. Per-request errors are isolated — a batch that
    raises is retried request-by-request so one poisoned query cannot fail
    its neighbours.
    """

    def __init__(
        self,
        service: CommunityService,
        window: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_queue: int = DEFAULT_MAX_QUEUE,
    ) -> None:
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.service = service
        self.window = window
        self.max_batch = max_batch
        self.max_queue = max_queue
        self._queue: Deque[_Pending] = deque()
        self._cond = threading.Condition()
        self._closing = False
        self._closed = False
        # counters (all guarded by _cond)
        self._submitted = 0
        self._rejected = 0
        self._dispatched_batches = 0
        self._dispatched_requests = 0
        self._coalesced_requests = 0  # requests that shared a batch
        self._max_depth = 0
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-coalescer", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(self, query: Query) -> QueryResponse:
        """Enqueue one query and block until its batched answer arrives.

        Raises :class:`QueueFullError` when admission control refuses the
        request, :class:`CoalescerClosedError` after :meth:`close`, and
        re-raises (in this caller's thread) whatever the service raised for
        this specific query.
        """
        pending = _Pending(Query.coerce(query))
        with self._cond:
            if self._closing:
                raise CoalescerClosedError("coalescer is draining; request refused")
            if len(self._queue) >= self.max_queue:
                self._rejected += 1
                raise QueueFullError(len(self._queue), retry_after=self.retry_after)
            self._queue.append(pending)
            self._submitted += 1
            self._max_depth = max(self._max_depth, len(self._queue))
            self._cond.notify_all()
        pending.event.wait()
        if pending.error is not None:
            raise pending.error
        assert pending.response is not None
        return pending.response

    @property
    def retry_after(self) -> float:
        """Suggested client back-off when the queue is full (seconds).

        One window is when the next dispatch happens at the latest; a full
        ``max_batch`` ahead of the caller bounds how long the backlog takes
        to clear. Never less than 50 ms so the hint survives integer
        truncation into a ``Retry-After`` header.
        """
        return max(0.05, self.window * 2)

    # ------------------------------------------------------------------
    # dispatcher side
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closing:
                    self._cond.wait()
                if not self._queue and self._closing:
                    self._closed = True
                    self._cond.notify_all()
                    return
                # Hold the batch open for one window (unless it is already
                # full, or we are draining and latency no longer matters).
                if self.window > 0 and not self._closing:
                    deadline = time.monotonic() + self.window
                    while len(self._queue) < self.max_batch:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0 or self._closing:
                            break
                        self._cond.wait(timeout=remaining)
                        if not self._queue:  # spurious wake after a drain
                            break
                batch = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue), self.max_batch))
                ]
                if not batch:
                    continue
                self._dispatched_batches += 1
                self._dispatched_requests += len(batch)
                if len(batch) > 1:
                    self._coalesced_requests += len(batch)
            self._serve(batch)

    def _serve(self, batch: List[_Pending]) -> None:
        """Answer one drained batch, isolating per-request failures.

        The batch path validates everything up front, so one bad request
        would fail the whole ``service.batch`` call — and a client could
        defeat coalescing for everyone by interleaving unknown vertices.
        Unknown vertices are therefore failed individually *before*
        dispatch (keeping the batch, and its dedup, for the rest); any
        residual batch failure (e.g. a vertex deleted by a racing update
        mid-dispatch) falls back to batches of one so good requests still
        get answers and bad ones get their own error.
        """
        pg = self.service.pg
        valid: List[_Pending] = []
        for pending in batch:
            if pending.query.vertex in pg:
                valid.append(pending)
            else:
                pending.error = VertexNotFoundError(pending.query.vertex)
                pending.event.set()
        if not valid:
            return
        try:
            responses = self.service.batch([p.query for p in valid])
        except Exception:
            for pending in valid:
                try:
                    pending.response = self.service.batch([pending.query])[0]
                except BaseException as exc:  # noqa: BLE001 - relayed to caller
                    pending.error = exc
                finally:
                    pending.event.set()
            return
        for pending, response in zip(valid, responses):
            pending.response = response
            pending.event.set()

    # ------------------------------------------------------------------
    # lifecycle + observability
    # ------------------------------------------------------------------
    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Drain and stop: queued requests are answered, new ones refused.

        Idempotent. With ``timeout=None`` waits indefinitely for the drain.
        """
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        self._dispatcher.join(timeout=timeout)

    @property
    def closed(self) -> bool:
        """Whether the dispatcher has fully drained and exited."""
        with self._cond:
            return self._closed

    @property
    def depth(self) -> int:
        """Requests currently queued (admission-control headroom probe)."""
        with self._cond:
            return len(self._queue)

    def stats(self) -> dict:
        """JSON-ready snapshot of the coalescer's counters."""
        with self._cond:
            batches = self._dispatched_batches
            return {
                "submitted": self._submitted,
                "rejected": self._rejected,
                "dispatched_batches": batches,
                "dispatched_requests": self._dispatched_requests,
                "coalesced_requests": self._coalesced_requests,
                "mean_batch_size": (
                    self._dispatched_requests / batches if batches else 0.0
                ),
                "max_depth": self._max_depth,
                "depth": len(self._queue),
                "window_seconds": self.window,
                "max_batch": self.max_batch,
                "max_queue": self.max_queue,
                "closing": self._closing,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"RequestCoalescer(window={self.window}, "
            f"batches={s['dispatched_batches']}, "
            f"mean_batch={s['mean_batch_size']:.1f})"
        )
