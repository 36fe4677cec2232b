"""The :class:`CommunityService` session — the serving substrate of the API.

The service is the one object every front end (CLI, benchmarks, and the
:mod:`repro.server` HTTP gateway) talks to. It owns a
:class:`~repro.engine.explorer.CommunityExplorer`, runs every request
through a middleware chain, lets the :class:`~repro.api.planner.QueryPlanner`
pick an execution method when the caller didn't, and answers with
:class:`~repro.api.response.QueryResponse` envelopes. Every request
takes one path: :meth:`CommunityService.query` is a batch of one::

    service = CommunityService(pg)
    response = service.query(Query.vertex("D").k(2))
    payload = response.to_dict()          # wire-ready

Middleware hooks are ``(query) -> query`` / ``(query, response) -> response``
transformations (see :class:`Middleware`). The built-ins cover validation,
metrics and result-limit enforcement; sharding or auth layers slot in the
same way, and the default chain is empty (the engine checks membership).
The hot path is deliberately thin — coerce, plan, fill ``k`` and
``method`` in one construction, one engine ``serve`` call, one envelope
build. On ``acmdl`` at scale 0.1 (2-core Intel Xeon, Python 3.11) a
cached hit costs about 9 µs through :meth:`CommunityService.query`
against 2–3 µs in the engine's ``_serve``; most of the difference is the
envelope. The request is resolved *once*: planner, envelope, cache key
and kernel all see the same ``(vertex, k, method, cohesion)``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Union

from repro.api.planner import BatchPlan, PlanDecision, QueryPlanner
from repro.api.query import DEFAULT_K, Query
from repro.api.response import QueryResponse
from repro.core.profiled_graph import ProfiledGraph
from repro.engine.explorer import CommunityExplorer, EngineStats, QueryLike
from repro.engine.updates import UpdateReceipt
from repro.errors import InvalidInputError, VertexNotFoundError
from repro.storage import BootReport, GraphStore, SnapshotInfo

#: Method selection for queries with ``method=None``. Its decisions depend
#: only on the query's method and cohesion and the serving state, so every
#: session shares one memo.
_PLANNER = QueryPlanner()


class Middleware:
    """Base class for service middleware (both hooks optional).

    ``before`` may replace the query (return a new :class:`Query`) or veto
    it (raise); ``after`` may replace the response. Returning ``None``
    keeps the current value. Hooks run in registration order on the way
    in and reverse order on the way out.
    """

    def before(self, query: Query, service: "CommunityService") -> Optional[Query]:
        return None

    def after(
        self, query: Query, response: QueryResponse, service: "CommunityService"
    ) -> Optional[QueryResponse]:
        return None


class ValidationMiddleware(Middleware):
    """Reject queries whose vertex is not in the served graph.

    Not in the default chain: the engine validates every batch before any
    cache traffic. Add it to refuse an unknown vertex before planning.
    """

    def before(self, query: Query, service: "CommunityService") -> Optional[Query]:
        """Raise :class:`VertexNotFoundError` for vertices not being served."""
        if query.vertex not in service.pg:
            raise VertexNotFoundError(query.vertex)
        return None


class ResultLimitMiddleware(Middleware):
    """Clamp every query's ``limit`` to a service-wide maximum."""

    def __init__(self, max_limit: int) -> None:
        if max_limit < 1:
            raise InvalidInputError(f"max_limit must be >= 1, got {max_limit}")
        self.max_limit = max_limit

    def before(self, query: Query, service: "CommunityService") -> Optional[Query]:
        """Rewrite the query so its ``limit`` never exceeds the cap."""
        if query.limit is None or query.limit > self.max_limit:
            return query.replace(limit=self.max_limit)
        return None


class MetricsMiddleware(Middleware):
    """Aggregate per-response serving metrics (a demo observability hook)."""

    def __init__(self) -> None:
        self.responses = 0
        self.communities_returned = 0
        self.cache_hits = 0
        self.elapsed_ms = 0.0

    def after(
        self, query: Query, response: QueryResponse, service: "CommunityService"
    ) -> Optional[QueryResponse]:
        """Fold this response into the running aggregates."""
        self.responses += 1
        self.communities_returned += response.returned
        self.cache_hits += 1 if response.cache_hit else 0
        self.elapsed_ms += response.elapsed_ms
        return None


def _new_explorer(pg: ProfiledGraph, parallel: Optional[int], engine_kwargs: dict):
    """The engine for a session over ``pg``: in-process, or a fleet of ``parallel``."""
    if parallel is not None and parallel > 1:
        from repro.parallel import ParallelExplorer

        return ParallelExplorer(pg, processes=parallel, **engine_kwargs)
    return CommunityExplorer(pg, **engine_kwargs)


class CommunityService:
    """A serving session: explorer + planner + middleware behind one door.

    Parameters
    ----------
    pg:
        The graph to serve, or an existing
        :class:`~repro.engine.explorer.CommunityExplorer` to adopt (its
        cache/index state is kept; the engine-construction knobs below are
        then ignored).
    middleware:
        Hook chain; default empty (the engine validates every batch before
        serving it).
    max_limit:
        When set, appends a :class:`ResultLimitMiddleware` clamping every
        response to at most this many communities.
    one_shot:
        Planner hint: this session will serve roughly one query, so a cold
        graph should not pay an index build (used by ``repro query``).
    storage_dir:
        Durable home for the served graph (see
        :class:`~repro.storage.store.GraphStore`). When set, ``pg`` is
        the *cold seed*: if the directory holds a snapshot the session
        serves the snapshot instead (plus WAL replay), and every
        :meth:`apply_updates` batch is fsync'd to the write-ahead log
        *before* it touches the graph, so a crash loses nothing that was
        acknowledged. The session also boots a
        :class:`~repro.subscribe.SubscriptionManager` as
        :attr:`subscriptions`: standing queries register through the
        same log and are checkpointed with the graph. Call
        :meth:`snapshot` to checkpoint and truncate the log. Requires
        ``pg`` to be a :class:`ProfiledGraph` or a
        zero-arg factory for one — a factory defers (or skips) seed
        construction when the directory already boots warm, which is how
        a replication replica avoids ever loading the dataset. An
        adopted explorer is refused (it already owns its graph object,
        which boot may need to replace).
    parallel:
        Worker *process* count for batch execution. With
        ``parallel >= 2`` (and ``pg`` a graph) the session serves through a
        :class:`~repro.parallel.ParallelExplorer`: batches of at least
        :data:`~repro.parallel.PARALLEL_BATCH_THRESHOLD` uncached queries
        shard across a worker fleet that boots from this process's graph
        + index image (the CP-tree is built once, here), and mutations
        re-ship it automatically. ``None``/``1`` keeps everything in-process.
        Call :meth:`close` (or use the service as a context manager) to
        release the fleet.
    cache_size, default_k:
        Forwarded to the explorer when ``pg`` is a graph. ``default_k``
        fills a request's ``k=None``; a ``method=None`` is the planner's
        to fill, and a ``cohesion=None`` is the paper's k-core.

    Examples
    --------
    >>> from repro.datasets import fig1_profiled_graph
    >>> service = CommunityService(fig1_profiled_graph(), default_k=2)
    >>> response = service.query("D")
    >>> response.returned, response.method
    (2, 'adv-P')
    """

    def __init__(
        self,
        pg: Union[ProfiledGraph, CommunityExplorer, Callable[[], ProfiledGraph]],
        middleware: Optional[Sequence[Middleware]] = None,
        max_limit: Optional[int] = None,
        one_shot: bool = False,
        parallel: Optional[int] = None,
        storage_dir: Optional[Union[str, Path]] = None,
        cache_size: Optional[int] = 1024,
        default_k: int = DEFAULT_K,
    ) -> None:
        if parallel is not None and parallel < 1:
            raise InvalidInputError(f"parallel must be >= 1, got {parallel}")
        self._store: Optional[GraphStore] = None
        self._boot_report: Optional[BootReport] = None
        #: The session's standing queries: the
        #: :class:`~repro.subscribe.SubscriptionManager` attached to it
        #: (a durable session boots its own), or ``None``.
        self.subscriptions = None
        engine_kwargs = dict(cache_size=cache_size, default_k=default_k)
        if storage_dir is not None:
            if not isinstance(pg, ProfiledGraph) and not callable(pg):
                raise InvalidInputError(
                    "storage_dir= needs a ProfiledGraph cold seed (or a "
                    "zero-arg factory for one), not an adopted explorer "
                    "(boot may replace the graph object)"
                )
            self._store = GraphStore(storage_dir)
            # The manager hooks the engine before replay, so replayed batches
            # re-derive their diffs (repro.subscribe sits above this layer).
            from repro.subscribe import SubscriptionManager

            try:
                graph, section = self._store.load(fallback=pg)
                self._explorer = _new_explorer(graph, parallel, engine_kwargs)
                manager = SubscriptionManager(self)
                self._boot_report = self._store.replay(
                    graph, self._explorer.apply_updates, manager.restore, section
                )
            except BaseException:
                self._store.close()  # a refused boot keeps no file open
                raise
        elif isinstance(pg, CommunityExplorer):
            # parallel=1 means "in-process", which any explorer satisfies;
            # otherwise the adopted explorer's fleet width must match.
            fleet = getattr(pg, "processes", None)
            if parallel is not None and parallel != fleet and not (
                parallel == 1 and fleet is None
            ):
                raise InvalidInputError(
                    "parallel= cannot reconfigure an adopted explorer; pass a "
                    "ProfiledGraph, or construct the ParallelExplorer yourself"
                )
            self._explorer = pg
        elif isinstance(pg, ProfiledGraph):
            self._explorer = _new_explorer(pg, parallel, engine_kwargs)
        else:
            raise InvalidInputError(
                f"CommunityService needs a ProfiledGraph or CommunityExplorer, "
                f"got {type(pg).__name__}"
            )
        self.one_shot = one_shot
        chain = list(middleware or ())
        if max_limit is not None:
            chain.append(ResultLimitMiddleware(max_limit))
        self.middleware: List[Middleware] = chain

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    @property
    def pg(self) -> ProfiledGraph:
        return self._explorer.pg

    @property
    def explorer(self) -> CommunityExplorer:
        """The underlying engine (index + cache owner)."""
        return self._explorer

    def cache_key(self, query: QueryLike) -> tuple:
        """:meth:`Query.cache_key` under *this session's* ``default_k``.

        Exactly the key the underlying explorer caches and dedups on
        (:meth:`CommunityExplorer.resolve_key`).
        """
        return self._explorer.resolve_key(query)

    @property
    def parallel_workers(self) -> Optional[int]:
        """The worker-fleet width, or ``None`` for an in-process session."""
        return getattr(self._explorer, "processes", None)

    def plan(self, query: QueryLike) -> PlanDecision:
        """The planner's verdict for ``query`` under current serving state."""
        return _PLANNER.plan(
            Query.coerce(query),
            index_ready=self._explorer.index_ready,
            one_shot=self.one_shot,
        )

    def plan_batch(self, batch_size: int) -> BatchPlan:
        """The planner's inline-vs-process verdict for a batch of this size.

        Reflects this session's fleet (``parallel=``), threshold and graph
        size. The engine re-applies the same rule to the batch's
        deduplicated cache misses at serve time, so a planned-parallel
        batch that turns out fully cached still answers inline.
        """
        from repro.parallel import TINY_GRAPH_VERTICES

        # Per-session overrides win (the engine gates on the same values),
        # so the reported plan always matches actual execution.
        tiny_floor = getattr(
            self._explorer, "tiny_graph_vertices", TINY_GRAPH_VERTICES
        )
        return _PLANNER.plan_batch(
            batch_size,
            processes=self.parallel_workers,
            min_batch=getattr(self._explorer, "min_batch", None),
            tiny_graph=self.pg.num_vertices < tiny_floor,
        )

    def _prepare(self, item: QueryLike) -> tuple:
        """Coerce + middleware-before + plan + resolve: ``(resolved_query, plan)``.

        The planner reads only the method and cohesion, so ``k`` and
        ``method`` are filled after it, in at most one construction.
        """
        query = Query.coerce(item)
        for hook in self.middleware:
            replacement = hook.before(query, self)
            if replacement is not None:
                query = replacement
        plan = _PLANNER.plan(
            query, index_ready=self._explorer.index_ready, one_shot=self.one_shot
        )
        if query.k is None or query.method != plan.method:
            k = self._explorer.default_k if query.k is None else query.k
            query = query.replace(k=k, method=plan.method)
        return query, plan

    def query(self, item: QueryLike, **overrides) -> QueryResponse:
        """Serve one request as a batch of one; keyword overrides patch the
        coerced query.

        ``service.query("D", k=2, limit=5)`` is shorthand for
        ``service.query(Query.vertex("D").k(2).limit(5))``.
        """
        if overrides:
            item = Query.coerce(item).replace(**overrides)
        return self.batch([item])[0]

    def batch(self, items: Iterable[QueryLike]) -> List[QueryResponse]:
        """Serve many requests; responses align with the input order.

        Execution goes through the engine's
        :meth:`~repro.engine.explorer.CommunityExplorer.serve` —
        batch-level validation and in-batch dedup are preserved; on a
        ``parallel=`` session, batches past the planner's threshold
        (:meth:`plan_batch`) shard across the worker fleet. ``cache_hit``
        provenance reflects the cache state at batch start (in-batch
        duplicates of a miss all report a miss); each response's
        ``graph_version`` is the version its answer actually reflects.
        """
        prepared = [self._prepare(item) for item in items]
        served = self._explorer.serve([query for query, _ in prepared])
        responses = []
        for (query, plan), (result, hit, version) in zip(prepared, served):
            response = QueryResponse.from_result(
                result,
                query,
                cache_hit=hit,
                index_used=self._explorer.method_uses_index(result.method),
                graph_version=version,
                plan=plan,
            )
            for hook in reversed(self.middleware):
                replacement = hook.after(query, response, self)
                if replacement is not None:
                    response = replacement
            responses.append(response)
        return responses

    # ------------------------------------------------------------------
    # session management (delegates)
    # ------------------------------------------------------------------
    @property
    def storage(self) -> Optional[GraphStore]:
        """The durable store, or ``None`` for a memory-only session."""
        return self._store

    @property
    def boot_report(self) -> Optional[BootReport]:
        """How the served graph was produced (``None`` without storage)."""
        return self._boot_report

    def apply_updates(self, updates: Iterable) -> UpdateReceipt:
        """Apply graph edits through the engine's mutation pipeline.

        The engine validates the whole batch before its first edit. On a
        ``storage_dir=`` session the validated batch is then framed and
        fsync'd to the write-ahead log — tagged with the graph version it
        will produce — *before* the in-memory apply, all under the
        engine's mutation lock. A batch the log rejects never touches the
        graph; a batch the graph acknowledged is always recoverable.
        """
        log = None if self._store is None else self._store.wal.append
        return self._explorer.apply_updates(updates, log=log)

    def snapshot(self, include_index: bool = True) -> SnapshotInfo:
        """Checkpoint the served graph and truncate the write-ahead log.

        Runs under the mutation lock so the snapshot captures a version
        boundary, never a half-applied batch; the attached subscriptions'
        heads ride along as the snapshot's subscription section. Raises
        :class:`InvalidInputError` on a memory-only session.
        """
        if self._store is None:
            raise InvalidInputError("snapshot() needs a storage_dir= session")
        with self._explorer.mutation_lock:
            heads = () if self.subscriptions is None else self.subscriptions.heads()
            return self._store.snapshot(self._explorer.pg, include_index, heads)

    def warm(self) -> float:
        """Eagerly build the index; returns seconds spent."""
        return self._explorer.warm()

    def stats(self) -> EngineStats:
        return self._explorer.stats()

    def clear_cache(self) -> None:
        """Drop all cached results (see :meth:`CommunityExplorer.clear_cache`)."""
        self._explorer.clear_cache()

    def close(self) -> None:
        """Release the worker fleet and the storage file handles.

        No-op on in-process, memory-only sessions; a closed fleet
        restarts lazily if the session serves another parallel-worthy
        batch. Does *not* snapshot — checkpointing on shutdown is the
        gateway's (or the caller's) decision via :meth:`snapshot`.
        """
        close = getattr(self._explorer, "close", None)
        if close is not None:
            close()
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "CommunityService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CommunityService({self._explorer!r}, "
            f"middleware={[type(m).__name__ for m in self.middleware]})"
        )
