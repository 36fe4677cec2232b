"""The batched query engine: a session object over one profiled graph.

The paper's pitch is *online, interactive* community exploration: the
CL-tree/CP-tree index is built once and amortised over many queries
(§4.2 — "Query efficiency"). :class:`CommunityExplorer` is the serving-side
embodiment of that claim:

* it owns one :class:`~repro.core.profiled_graph.ProfiledGraph` and builds
  its CP-tree exactly once, lazily, then reuses it for every subsequent
  query;
* it memoises complete :class:`~repro.core.community.PCSResult` objects in
  an LRU cache keyed on :meth:`repro.engine.query.Query.cache_key` —
  ``(vertex, k, method, cohesion)`` with this session's ``default_k``
  filled in — so repeated exploration of the same vertex — the common
  interactive pattern — is a dictionary lookup;
* it has **one serve path**: every request shape is coerced to a
  :class:`~repro.engine.query.Query`, keyed once, and answered by
  :meth:`CommunityExplorer._serve` (validate → version-checked cache
  probe → version-stable compute → cache put), which reports
  ``(result, cache_hit, graph_version)`` per request. :meth:`serve` is
  the batch entry point (the one :class:`repro.api.CommunityService`
  uses for every request); ``explore``, ``explore_query`` and
  ``explore_many`` are thin adapters over the same path, so batches get
  intra-batch deduplication and single queries are batches of one;
* it is **mutation-safe**: cached results are tagged with the graph
  :attr:`~repro.core.profiled_graph.ProfiledGraph.version` they were
  computed against, so edits applied through
  :meth:`CommunityExplorer.apply_updates` (or directly through the
  profiled graph's versioned mutation API) invalidate stale entries in
  O(1) — the version bump *is* the invalidation; stale entries are evicted
  lazily on their next lookup and counted in
  :attr:`EngineStats.invalidations`. The CP-tree is patched as each edit
  lands (only the per-label CL-trees it touches), with the time charged to
  :attr:`EngineStats.maintenance_seconds`.

Every scaling layer sits on top of this object rather than on raw
``pcs()`` calls: :class:`repro.parallel.ParallelExplorer` subclasses it to
shard batches across worker processes, :class:`repro.api.CommunityService`
wraps it behind the public facade, and the :mod:`repro.server` HTTP
gateway coalesces independent clients into its batch path.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, List, Optional, Tuple, Union

from repro.core.cohesion import get_cohesion
from repro.core.community import PCSResult
from repro.core.profiled_graph import ProfiledGraph
from repro.core.search import normalize_method, pcs
from repro.engine.cache import MISSING, CacheStats, LRUCache
from repro.engine.query import DEFAULT_K, Query, QueryBuilder
from repro.engine.updates import GraphUpdate, UpdateReceipt, apply_update, preview_updates
from repro.errors import IntegrityError, InvalidInputError, VertexNotFoundError
from repro.graph.csr import active_backend
from repro.index.cptree import CPTree
from repro.index.maintenance import BatchDamage, UpdateJournal

Vertex = Hashable

#: Methods whose per-query work never reads the CP-tree.
_INDEX_FREE_METHODS = frozenset({"basic"})

#: Optimistic attempts of the version-stable execution loop before it
#: falls back to computing under the index lock (which blocks
#: :meth:`CommunityExplorer.apply_updates` for the duration).
_OPTIMISTIC_ATTEMPTS = 3

#: Every request shape the engine accepts (see :meth:`Query.coerce`).
QueryLike = Union[Query, QueryBuilder, Vertex, Tuple, dict]

#: One served request: ``(result, cache_hit, graph_version)``.
Served = Tuple[PCSResult, bool, int]


@dataclass(frozen=True)
class EngineStats:
    """Snapshot of an explorer's serving counters."""

    queries_served: int
    cache: CacheStats
    index_builds: int
    index_build_seconds: float
    batches: int
    #: Effective graph edits applied through :meth:`CommunityExplorer.apply_updates`.
    updates_applied: int = 0
    #: Time spent applying updates, index patches included.
    maintenance_seconds: float = 0.0
    #: Kernel backend serving the hot graph kernels (see
    #: :func:`repro.graph.csr.active_backend`).
    backend: str = "object"

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate

    @property
    def invalidations(self) -> int:
        """Cached results discarded because the graph moved past their version."""
        return self.cache.invalidations

    def to_dict(self) -> dict:
        """A JSON-ready snapshot (the ``engine`` block of ``/stats``)."""
        return {
            "queries_served": self.queries_served,
            "batches": self.batches,
            "cache": self.cache.to_dict(),
            "index_builds": self.index_builds,
            "index_build_seconds": self.index_build_seconds,
            "updates_applied": self.updates_applied,
            "maintenance_seconds": self.maintenance_seconds,
            "backend": self.backend,
        }


@dataclass
class _Counters:
    queries_served: int = 0
    index_builds: int = 0
    index_build_seconds: float = 0.0
    batches: int = 0
    updates_applied: int = 0
    maintenance_seconds: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock)


class CommunityExplorer:
    """A reusable PCS query session over one profiled graph.

    Parameters
    ----------
    pg:
        The profiled graph to serve queries against.
    cache_size:
        LRU result-cache capacity (``None`` = unbounded, ``0`` = disabled).
    default_k:
        The ``k`` a request with ``k=None`` resolves to (a ``None`` method
        resolves to :data:`~repro.engine.query.DEFAULT_METHOD`, a ``None``
        cohesion to k-core; see :meth:`Query.cache_key
        <repro.engine.query.Query.cache_key>`).

    Examples
    --------
    >>> from repro.datasets import fig1_profiled_graph
    >>> ex = CommunityExplorer(fig1_profiled_graph())
    >>> len(ex.explore("D", k=2))
    2
    >>> [len(r) for r in ex.explore_many([("D", 2), ("D", 2)])]
    [2, 2]
    >>> ex.stats().cache.hits
    2
    """

    def __init__(
        self,
        pg: ProfiledGraph,
        cache_size: Optional[int] = 1024,
        default_k: int = DEFAULT_K,
    ) -> None:
        if default_k < 0:
            raise InvalidInputError(f"default_k must be non-negative, got {default_k}")
        self.pg = pg
        self.default_k = default_k
        self._cache = LRUCache(maxsize=cache_size)
        self._counters = _Counters()
        # Reentrant: the version-stable fallback computes while holding it,
        # and the computation's index() call re-acquires.
        self._index_lock = threading.RLock()
        # Post-update hooks: called as hook(receipt, damage) at the end of
        # every apply_updates batch, inside the mutation lock (see
        # add_update_hook). List mutations happen under the same lock.
        self._update_hooks: List = []

    # ------------------------------------------------------------------
    # index ownership
    # ------------------------------------------------------------------
    def index(self) -> CPTree:
        """The CP-tree: built on first use, patched by every edit after that.

        Thread-safe: concurrent first calls build the index once. Patching
        time is charged to :attr:`EngineStats.maintenance_seconds` by
        :meth:`apply_updates`.
        """
        with self._index_lock:
            if self.pg.has_index():
                return self.pg.index()
            start = time.perf_counter()
            built = self.pg.index()
            elapsed = time.perf_counter() - start
            with self._counters.lock:
                self._counters.index_builds += 1
                self._counters.index_build_seconds += elapsed
            return built

    def warm(self) -> float:
        """Eagerly build the CP-tree; returns seconds spent building.

        Idempotent — a warm explorer returns ~0 immediately.
        """
        start = time.perf_counter()
        self.index()
        return time.perf_counter() - start

    @property
    def index_ready(self) -> bool:
        return self.pg.has_index()

    @property
    def mutation_lock(self) -> threading.RLock:
        """The reentrant lock guarding index builds and update batches.

        External mutation pipelines (the write-ahead log in
        :mod:`repro.storage`) hold this lock across *log-then-apply* so no
        second batch can slip between a record's version tag and its
        in-memory effect. Reentrant, so :meth:`apply_updates` can be
        called while holding it.
        """
        return self._index_lock

    def add_update_hook(self, hook) -> None:
        """Register ``hook(receipt, damage)`` to run after every update batch.

        Called at the end of :meth:`apply_updates` — after the edits landed
        and were patched into the index, *inside* the mutation lock — with the
        batch's :class:`~repro.engine.updates.UpdateReceipt` and a
        :class:`~repro.index.maintenance.BatchDamage` snapshot of exactly
        what the batch touched. Because the lock is held, the graph is
        guaranteed to sit at ``receipt.version`` for the hook's whole run;
        hooks may issue queries (the lock is reentrant on this thread) but
        must not apply further updates. Exceptions propagate to the
        updater, so hooks that serve third parties should catch their own.
        """
        with self._index_lock:
            self._update_hooks.append(hook)

    def remove_update_hook(self, hook) -> None:
        """Deregister a hook added with :meth:`add_update_hook` (idempotent)."""
        with self._index_lock:
            try:
                self._update_hooks.remove(hook)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def resolve_key(self, item: QueryLike) -> Tuple:
        """The fully-resolved ``(vertex, k, method, cohesion)`` cache key.

        :meth:`Query.cache_key <repro.engine.query.Query.cache_key>` under
        this session's ``default_k`` — the canonical request key of the
        serving session. Two requests that map to the same tuple share one
        cache entry and one execution.
        """
        return Query.coerce(item).cache_key(self.default_k)

    def _run(self, q: Vertex, k: int, method: str, cohesion: object) -> PCSResult:
        """Execute one resolved key (also the worker-process entry point)."""
        if q not in self.pg:
            raise VertexNotFoundError(q)
        index = None if method in _INDEX_FREE_METHODS else self.index()
        # None is the paper default; it lets pcs() use the index fast path.
        model = None if cohesion == "k-core" else get_cohesion(cohesion)
        result = pcs(self.pg, q, k, method=method, index=index, cohesion=model)
        with self._counters.lock:
            self._counters.queries_served += 1
        return result

    def _run_stable(self, key: Tuple) -> Tuple[PCSResult, int]:
        """Execute ``key`` and return ``(result, version)`` where ``version``
        is a graph version the result is *guaranteed* to reflect.

        Queries racing :meth:`apply_updates` on other threads could observe
        a half-applied batch: the version is read, the graph mutates
        mid-computation, and the result matches neither the version read
        before nor the one after. This loop makes serving linearisable per
        query: optimistically compute between two reads of
        :attr:`~repro.core.profiled_graph.ProfiledGraph.write_seq` — even
        and unchanged means no edit was in progress at the start and none
        began since, so the version read at the start is the one computed
        against. (The version alone is not enough: a mutator changes the
        adjacency before it bumps.) A computation that raced (sequence odd
        or moved, or crashed on a torn read of a mutating structure) is
        retried; after
        :data:`_OPTIMISTIC_ATTEMPTS` races the final attempt runs holding
        the index lock, which :meth:`apply_updates` takes for its whole
        batch — mutations through the engine block, and the result is exact.
        (Edits applied directly through the ProfiledGraph API bypass that
        lock; the guarantee covers the supported serving path.)
        """
        pg = self.pg
        for _ in range(_OPTIMISTIC_ATTEMPTS):
            seq = pg.write_seq
            version = pg.version
            if seq % 2:
                continue  # an edit is in progress
            try:
                result = self._run(*key)
            except Exception:
                if pg.write_seq == seq:
                    raise  # a real error, not a torn read of a mutating graph
                continue
            if pg.write_seq == seq:
                return result, version
        with self._index_lock:
            return self._run(*key), self.pg.version

    def _serve(self, keys: List[Tuple]) -> List[Served]:
        """Answer resolved ``keys``: the engine's one probe/compute/put path.

        Returns one ``(result, cache_hit, graph_version)`` per key, aligned
        with the input. Every query vertex is validated before any cache
        traffic, so a request naming an unknown vertex raises without
        executing anything, bumping a counter or touching the cache. A
        cached entry is served only if it was computed at the current graph
        version; entries stranded behind a mutation are dropped (counted as
        an invalidation plus a miss) and recomputed.

        There is one cache lookup per *incoming* key, so hit/miss
        accounting matches the caller's view; duplicate misses execute once
        (and all report ``cache_hit=False`` — nothing was cached for them
        up front). Hits carry the version their entry was validated
        against, misses the version their computation stabilised at (see
        :meth:`_run_stable`).
        """
        pg = self.pg
        for key in keys:
            if key[0] not in pg:
                raise VertexNotFoundError(key[0])
        version = pg.version
        served = [
            (self._cache.get_versioned(key, version, MISSING), True, version)
            for key in keys
        ]
        pending = [key for key, entry in zip(keys, served) if entry[0] is MISSING]
        if pending:
            computed = self._execute_pending(list(dict.fromkeys(pending)))
            for key, (result, result_version) in computed.items():
                self._cache.put_versioned(key, result_version, result)
            for i, key in enumerate(keys):
                if served[i][0] is MISSING:
                    result, result_version = computed[key]
                    served[i] = (result, False, result_version)
        return served

    def explore(
        self,
        q: Vertex,
        k: Optional[int] = None,
        method: Optional[str] = None,
        cohesion: Optional[object] = None,
    ) -> PCSResult:
        """One PCS query through the version-checked cache and shared index."""
        return self._serve([self.resolve_key(Query(q, k, method, cohesion))])[0][0]

    def method_uses_index(self, method: str) -> bool:
        """Whether ``method``'s computation reads the CP-tree index."""
        return normalize_method(method) not in _INDEX_FREE_METHODS

    def explore_query(self, query: QueryLike, plan=None):
        """Serve one :class:`~repro.engine.query.Query`, returning the full envelope.

        The :class:`repro.api.QueryResponse` carries the communities (with
        the query's ``limit``/``min_size`` post-filters applied), timing,
        cache/index provenance, the graph version the answer reflects, and
        ``plan`` (a :class:`repro.api.PlanDecision`) when a planner chose
        the method. The envelope's ``query`` is the *resolved* request —
        ``k`` and ``method`` filled in — so what it reports is what was
        keyed and executed. The raw :class:`~repro.core.community.PCSResult`
        rides along in ``response.result`` for in-process callers (the
        service answers every request through :meth:`serve` instead).
        """
        from repro.api.response import QueryResponse

        query = Query.coerce(query).resolve(self.default_k)
        result, cache_hit, version = self._serve([self.resolve_key(query)])[0]
        return QueryResponse.from_result(
            result,
            query,
            cache_hit=cache_hit,
            index_used=self.method_uses_index(query.method),
            graph_version=version,
            plan=plan,
        )

    def serve(self, items: Iterable[QueryLike]) -> List[Served]:
        """Serve a batch: one ``(result, cache_hit, graph_version)`` per item.

        The whole batch is validated up front — every item's shape, method
        and query vertex — so a malformed batch fails *before* any query
        executes, bumps a counter or touches the cache (no partially
        executed batches). Identical requests inside the batch are
        deduplicated (executed once); requests already cached at the
        current graph version are served from cache; the remaining misses
        run through :meth:`_execute_pending`. The same batch always yields
        the same results in the same order.
        """
        served = self._serve([self.resolve_key(item) for item in items])
        with self._counters.lock:
            self._counters.batches += 1
        return served

    def explore_many(self, specs: Iterable[QueryLike]) -> List[PCSResult]:
        """:meth:`serve`, results only; aligned with the input order."""
        return [result for result, _, _ in self.serve(specs)]

    def _execute_pending(
        self, pending: List[Tuple]
    ) -> "dict[Tuple, Tuple[PCSResult, int]]":
        """Execute the batch's deduplicated cache misses.

        Returns ``{key: (result, stable_version)}``. The base implementation
        runs them inline, in order; the process-parallel layer
        (:class:`repro.parallel.ParallelExplorer`) overrides this one hook to
        shard the same pending set across worker processes, so batch
        validation, dedup, caching and provenance stay identical in both
        execution modes.
        """
        return {key: self._run_stable(key) for key in pending}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def apply_updates(
        self,
        updates: Iterable[Union[GraphUpdate, Tuple, dict]],
        log: Optional[Callable[[int, int, List[GraphUpdate]], object]] = None,
    ) -> UpdateReceipt:
        """Apply a batch of graph edits and keep the engine consistent.

        :func:`~repro.engine.updates.preview_updates` validates the whole
        batch before its first edit, so the graph, the caches and the
        update hooks see all of a batch or none of it; ``log(base,
        version, ops)`` (a durable session's WAL append) then gets the
        predicted version. Each effective edit bumps ``pg.version`` by one,
        which invalidates every cached result computed before it, and is
        patched into the CP-tree, if built, as it lands.
        """
        ops = [GraphUpdate.coerce(item) for item in updates]
        start = time.perf_counter()
        applied = 0
        with self._index_lock:
            _, predicted = preview_updates(self.pg, ops)
            if log is not None:
                log(self.pg.version, predicted, ops)
            hooks = list(self._update_hooks)
            # The tap records what the batch touched: the labels whose
            # CL-trees were patched (the receipt) and the damage hooks
            # match standing queries against, index or not.
            tap = UpdateJournal() if hooks or self.pg.has_index() else None
            if tap is not None:
                self.pg.attach_journal(tap)
            try:
                for op in ops:
                    if apply_update(self.pg, op):
                        applied += 1
            finally:
                if tap is not None:
                    self.pg.detach_journal(tap)
            damage = BatchDamage.from_journal(tap) if hooks else None
            repaired_labels = len(tap.dirty_labels) if self.pg.has_index() else 0
            # Capture the version before releasing the lock: a concurrent
            # batch could commit in the gap and the receipt would tag this
            # batch's work with the *other* batch's version.
            version = self.pg.version
            if version != predicted:  # pragma: no cover - invariant
                raise IntegrityError(f"preview predicted version {predicted}, apply made {version}")
            receipt = UpdateReceipt(
                requested=len(ops),
                applied=applied,
                version=version,
                repaired_labels=repaired_labels,
                seconds=time.perf_counter() - start,
            )
            # Hooks run inside the mutation lock so the graph is exactly at
            # receipt.version while they look — re-entrant queries on this
            # thread (the lock is an RLock) see a settled graph, and diffs
            # they derive are exact at that version by construction.
            for hook in hooks:
                hook(receipt, damage)
        with self._counters.lock:
            self._counters.updates_applied += applied
            self._counters.maintenance_seconds += receipt.seconds
        return receipt

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """An immutable :class:`EngineStats` snapshot of the serving counters."""
        with self._counters.lock:
            return EngineStats(
                queries_served=self._counters.queries_served,
                cache=self._cache.stats(),
                index_builds=self._counters.index_builds,
                index_build_seconds=self._counters.index_build_seconds,
                batches=self._counters.batches,
                updates_applied=self._counters.updates_applied,
                maintenance_seconds=self._counters.maintenance_seconds,
                backend=active_backend(),
            )

    def clear_cache(self) -> None:
        """Drop all cached results unconditionally.

        Rarely needed for correctness any more: results are version-tagged,
        so graph mutations already invalidate stale entries (lazily, on
        their next lookup). Use this to release memory or to force
        recomputation at an unchanged version. The CP-tree is kept — it is
        patched, not discarded, when the graph changes.
        """
        self._cache.clear()

    def reset_stats(self) -> None:
        """Zero every serving counter (cache stats included)."""
        self._cache.reset_stats()
        with self._counters.lock:
            self._counters.queries_served = 0
            self._counters.index_builds = 0
            self._counters.index_build_seconds = 0.0
            self._counters.batches = 0
            self._counters.updates_applied = 0
            self._counters.maintenance_seconds = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"CommunityExplorer({self.pg!r}, served={s.queries_served}, "
            f"hit_rate={s.cache_hit_rate:.2f}, index_ready={self.index_ready})"
        )
