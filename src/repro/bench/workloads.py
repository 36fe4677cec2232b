"""Query workload construction shared by the benchmarks.

The paper's protocol (§5.1): "we set the default value of k to 6. For each
dataset, we randomly select 100 query vertices from the 6-core." Benchmarks
reproduce that protocol at a configurable query count (fewer queries by
default — pure Python — with identical sampling semantics).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Sequence

from repro.core.profiled_graph import ProfiledGraph
from repro.graph.generators import random_queries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.service import CommunityService
    from repro.engine.explorer import CommunityExplorer
    from repro.engine.updates import GraphUpdate

Vertex = Hashable

#: The paper's default parameters.
DEFAULT_K = 6
PAPER_QUERY_COUNT = 100


@dataclass(frozen=True)
class Workload:
    """A reproducible query workload over one dataset."""

    dataset: str
    k: int
    queries: Sequence[Vertex]

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)


def make_workload(
    pg: ProfiledGraph,
    dataset: str,
    num_queries: int,
    k: int = DEFAULT_K,
    seed: int = 7,
    require_profile: bool = True,
) -> Workload:
    """Sample ``num_queries`` vertices from the k-core of ``pg``.

    ``require_profile`` filters to vertices whose P-tree has more than the
    root label, so PCS queries have a non-trivial search space (the paper's
    real query vertices always carry profiles).
    """
    restrict: Optional[List[Vertex]] = None
    if require_profile:
        restrict = [v for v in pg.vertices() if len(pg.labels(v)) > 1]
    queries = random_queries(pg.graph, num_queries, k, seed=seed, restrict_to=restrict)
    return Workload(dataset=dataset, k=k, queries=tuple(queries))


# ----------------------------------------------------------------------
# engine throughput (serving-side metrics: queries/sec, cache hit rate)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ThroughputReport:
    """Outcome of one engine throughput run.

    ``queries`` counts the specs *submitted* (cache hits included);
    ``executed`` counts the PCS computations actually performed.
    """

    dataset: str
    method: str
    k: int
    queries: int
    executed: int
    elapsed_seconds: float
    cache_hits: int
    cache_misses: int

    @property
    def queries_per_second(self) -> float:
        """Serving rate over the measured wall-clock window."""
        if self.elapsed_seconds <= 0:
            return float("inf") if self.queries else 0.0
        return self.queries / self.elapsed_seconds

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of lookups served from the result cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "method": self.method,
            "k": self.k,
            "queries": self.queries,
            "executed": self.executed,
            "elapsed_seconds": self.elapsed_seconds,
            "queries_per_second": self.queries_per_second,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
        }


def run_throughput(
    explorer: "CommunityExplorer",
    workload: Workload,
    method: str = "adv-P",
    repeat_factor: int = 1,
) -> ThroughputReport:
    """Push a workload through an explorer and measure the serving rate.

    ``repeat_factor`` replays the workload that many times as successive
    batches — the interactive-exploration pattern where the same vertices
    are re-queried — so cache hit rate becomes a meaningful output (first
    batch misses, replays hit). Counters are delta-measured, so the
    explorer may have served traffic before.
    """
    if repeat_factor < 1:
        raise ValueError(f"repeat_factor must be >= 1, got {repeat_factor}")
    specs = [(q, workload.k, method) for q in workload.queries]
    before = explorer.stats()
    start = time.perf_counter()
    for _ in range(repeat_factor):
        explorer.explore_many(specs)
    elapsed = time.perf_counter() - start
    after = explorer.stats()
    return ThroughputReport(
        dataset=workload.dataset,
        method=method,
        k=workload.k,
        queries=len(specs) * repeat_factor,
        executed=after.queries_served - before.queries_served,
        elapsed_seconds=elapsed,
        cache_hits=after.cache.hits - before.cache.hits,
        cache_misses=after.cache.misses - before.cache.misses,
    )


@dataclass(frozen=True)
class ColdWarmReport:
    """Cold (index rebuilt per query) vs warm (engine) serving comparison.

    ``warm_ms_per_query`` is steady-state serving — the one-time index
    build the engine performs is charged to ``warm_index_build_seconds``
    and reported separately, not hidden.
    """

    cold_query_count: int
    cold_seconds_per_query: float
    warm_index_build_seconds: float
    throughput: ThroughputReport

    @property
    def cold_ms_per_query(self) -> float:
        return self.cold_seconds_per_query * 1000.0

    @property
    def warm_ms_per_query(self) -> float:
        """Mean per-query latency of the warm (engine) pass."""
        t = self.throughput
        return t.elapsed_seconds / max(1, t.queries) * 1000.0

    @property
    def speedup(self) -> float:
        """Cold per-query latency over warm per-query latency."""
        warm = self.warm_ms_per_query
        return self.cold_ms_per_query / warm if warm > 0 else float("inf")

    def to_dict(self) -> dict:
        return {
            "cold_queries": self.cold_query_count,
            "cold_ms_per_query": self.cold_ms_per_query,
            "warm_ms_per_query": self.warm_ms_per_query,
            "warm_index_build_ms": self.warm_index_build_seconds * 1000.0,
            "speedup": self.speedup,
            "throughput": self.throughput.to_dict(),
        }


def run_service_throughput(
    service: "CommunityService",
    workload: Workload,
    method: str = "adv-P",
    repeat_factor: int = 1,
) -> ThroughputReport:
    """:func:`run_throughput`, but routed through a :class:`CommunityService`.

    Same workload shape, same delta-measured counters — the only difference
    is the facade: queries travel as :class:`repro.api.Query` objects
    through the middleware/planner/envelope pipeline instead of as bare
    specs. Comparing this against :func:`run_throughput` on the same
    workload isolates the facade's overhead.
    """
    from repro.api.query import Query

    if repeat_factor < 1:
        raise ValueError(f"repeat_factor must be >= 1, got {repeat_factor}")
    queries = [
        Query(vertex=q, k=workload.k, method=method) for q in workload.queries
    ]
    explorer = service.explorer
    before = explorer.stats()
    start = time.perf_counter()
    for _ in range(repeat_factor):
        service.batch(queries)
    elapsed = time.perf_counter() - start
    after = explorer.stats()
    return ThroughputReport(
        dataset=workload.dataset,
        method=method,
        k=workload.k,
        queries=len(queries) * repeat_factor,
        executed=after.queries_served - before.queries_served,
        elapsed_seconds=elapsed,
        cache_hits=after.cache.hits - before.cache.hits,
        cache_misses=after.cache.misses - before.cache.misses,
    )


def measure_facade_overhead(
    pg: ProfiledGraph,
    workload: Workload,
    method: str = "adv-P",
    repeat_factor: int = 1,
) -> dict:
    """Service-vs-engine serving rate on one workload (facade overhead).

    Runs the identical workload twice against separately warmed sessions —
    once through bare :meth:`CommunityExplorer.explore_many`, once through
    :meth:`CommunityService.batch` — and reports the relative per-query
    overhead of the facade (envelope construction, planner, middleware).
    Each pass replays the workload ``repeat_factor`` times, so cache-hit
    serving (the steady state the facade must not slow down) dominates.
    """
    from repro.api.service import CommunityService
    from repro.engine.explorer import CommunityExplorer

    explorer = CommunityExplorer(pg)
    explorer.warm()
    engine_report = run_throughput(
        explorer, workload, method=method, repeat_factor=repeat_factor
    )

    service = CommunityService(pg)
    service.warm()
    service_report = run_service_throughput(
        service, workload, method=method, repeat_factor=repeat_factor
    )

    engine_s = engine_report.elapsed_seconds / max(1, engine_report.queries)
    service_s = service_report.elapsed_seconds / max(1, service_report.queries)
    overhead = (service_s - engine_s) / engine_s if engine_s > 0 else 0.0
    return {
        "dataset": workload.dataset,
        "method": method,
        "k": workload.k,
        "engine_ms_per_query": engine_s * 1000.0,
        "service_ms_per_query": service_s * 1000.0,
        "engine_queries_per_second": engine_report.queries_per_second,
        "service_queries_per_second": service_report.queries_per_second,
        "overhead_fraction": overhead,
        "engine": engine_report.to_dict(),
        "service": service_report.to_dict(),
    }


# ----------------------------------------------------------------------
# process-parallel throughput (sharded batch execution)
# ----------------------------------------------------------------------
def measure_parallel_scaling(
    pg: ProfiledGraph,
    workload: Workload,
    method: str = "basic",
    worker_counts: Sequence[int] = (1, 4),
    rounds: int = 2,
    min_batch: Optional[int] = None,
) -> dict:
    """Warm-batch serving rate at several worker-process counts.

    For each width a fresh :class:`~repro.parallel.ParallelExplorer` over
    the *same* graph is warmed (the one index build, in the parent), then
    the workload is served as one batch of cache-cold queries, ``rounds``
    times with the result cache cleared in between; the best round counts.
    The fleet boots from the parent's graph + index image at its first
    shard, so round one pays the bootstrap and, with ``rounds >= 2``, the
    best round is steady-state batch cost. Width ``1`` never starts a pool
    — it is the in-process baseline, same engine, same validation, same
    cache handling.

    Every width's results are compared against the first width's
    (``results_equal`` per measurement) — the differential guarantee the
    parallel benchmark asserts alongside its speedup.

    ``method`` defaults to ``basic``: the heaviest per-query compute and
    index-free, so the measurement isolates sharding.
    """
    from repro.core.community import as_vertex_subtree_map
    from repro.parallel import ParallelExplorer

    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    specs = [(q, workload.k, method) for q in workload.queries]
    extra = {} if min_batch is None else {"min_batch": min_batch}
    measurements: dict = {}
    baseline_maps = None
    for width in worker_counts:
        explorer = ParallelExplorer(pg, processes=width, **extra)
        try:
            warm_seconds = explorer.warm()
            best = float("inf")
            maps = None
            for _ in range(rounds):
                explorer.clear_cache()
                start = time.perf_counter()
                results = explorer.explore_many(specs)
                elapsed = time.perf_counter() - start
                if elapsed < best:
                    best = elapsed
                maps = [as_vertex_subtree_map(r) for r in results]
        finally:
            explorer.close()
        if baseline_maps is None:
            baseline_maps, equal = maps, True
        else:
            equal = maps == baseline_maps
        measurements[width] = {
            "workers": width,
            "elapsed_seconds": best,
            "queries_per_second": len(specs) / best if best > 0 else float("inf"),
            "warm_seconds": warm_seconds,
            "results_equal": equal,
        }
    first = worker_counts[0]
    speedups = {
        width: (
            measurements[first]["elapsed_seconds"] / m["elapsed_seconds"]
            if m["elapsed_seconds"] > 0
            else float("inf")
        )
        for width, m in measurements.items()
    }
    return {
        "dataset": workload.dataset,
        "method": method,
        "k": workload.k,
        "batch_size": len(specs),
        "rounds": rounds,
        "measurements": measurements,
        "speedups": speedups,
        "all_equal": all(m["results_equal"] for m in measurements.values()),
    }


# ----------------------------------------------------------------------
# update throughput (mutation-side metrics: edits/sec, maintenance cost)
# ----------------------------------------------------------------------
def make_edit_stream(
    pg: ProfiledGraph,
    num_edits: int,
    seed: int = 7,
    profile_fraction: float = 0.2,
) -> List["GraphUpdate"]:
    """A reproducible stream of graph edits for ``pg``-shaped graphs.

    Edge edits are random toggles (remove when present, insert when
    absent), simulated against a scratch copy so the emitted operations
    are concrete and can be replayed identically by several measurement
    modes. ``profile_fraction`` of the edits are profile replacements that
    reuse another vertex's (already ancestor-closed) label set.
    """
    rng = random.Random(seed)
    scratch = pg.graph.copy()
    vertices = sorted(scratch.vertex_set(), key=repr)
    if len(vertices) < 2:
        raise ValueError("edit streams need at least two vertices")
    from repro.engine.updates import GraphUpdate

    ops: List[GraphUpdate] = []
    while len(ops) < num_edits:
        if profile_fraction and rng.random() < profile_fraction:
            target = rng.choice(vertices)
            donor = rng.choice(vertices)
            ops.append(
                GraphUpdate(op="set_profile", u=target, labels=sorted(pg.labels(donor)))
            )
            continue
        u, v = rng.choice(vertices), rng.choice(vertices)
        if u == v:
            continue
        if scratch.has_edge(u, v):
            scratch.remove_edge(u, v)
            ops.append(GraphUpdate(op="remove_edge", u=u, v=v))
        else:
            scratch.add_edge(u, v)
            ops.append(GraphUpdate(op="add_edge", u=u, v=v))
    return ops


@dataclass(frozen=True)
class UpdateThroughputReport:
    """Incremental index maintenance vs the rebuild-per-edit strawman.

    ``rebuild_ms_per_edit`` times a full ``pg.index(rebuild=True)`` after
    each edit (what any pre-mutation-API pipeline had to do to stay
    correct); ``incremental_ms_per_edit`` times the engine's
    ``apply_updates`` path, which patches only the per-label CL-trees each
    edit touched, as the edit lands. ``consistent`` records that the
    incrementally maintained index ended byte-equal to a fresh build
    (:func:`index_matches_fresh_build`). ``ms_per_edit_by_op`` splits the
    incremental path by edit kind.
    """

    dataset: str
    num_edits: int
    rebuild_edits: int
    rebuild_ms_per_edit: float
    incremental_ms_per_edit: float
    maintenance_ms_per_edit: float
    updates_applied: int
    invalidations: int
    consistent: bool
    ms_per_edit_by_op: Dict[str, float]

    @property
    def speedup(self) -> float:
        """Rebuild-per-edit latency over incremental-maintenance latency."""
        if self.incremental_ms_per_edit <= 0:
            return float("inf")
        return self.rebuild_ms_per_edit / self.incremental_ms_per_edit

    @property
    def edits_per_second(self) -> float:
        """Incremental-path edit rate over the measured window."""
        if self.incremental_ms_per_edit <= 0:
            return float("inf")
        return 1000.0 / self.incremental_ms_per_edit

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "num_edits": self.num_edits,
            "rebuild_edits": self.rebuild_edits,
            "rebuild_ms_per_edit": self.rebuild_ms_per_edit,
            "incremental_ms_per_edit": self.incremental_ms_per_edit,
            "maintenance_ms_per_edit": self.maintenance_ms_per_edit,
            "updates_applied": self.updates_applied,
            "invalidations": self.invalidations,
            "speedup": self.speedup,
            "edits_per_second": self.edits_per_second,
            "consistent": self.consistent,
            "ms_per_edit_by_op": dict(self.ms_per_edit_by_op),
        }


def _links(node) -> tuple:
    """A CP-node's taxonomy links as labels: ``(parent, sorted children)``."""
    parent = None if node.parent is None else node.parent.label
    return parent, sorted(child.label for child in node.children)


def index_matches_fresh_build(pg: ProfiledGraph) -> bool:
    """Whether the maintained CP-tree is exactly what a fresh build gives.

    The CL-trees are compared through the snapshot codec, whose rows are
    canonical: equal bytes mean equal core numbers, node shapes and
    anchored sets for every label. What the codec derives on load instead
    of storing — member sets, CP-node links, the headMap — is compared
    directly.
    """
    from repro.index.cptree import CPTree
    from repro.storage.snapshot import encode_payload

    maintained = pg.index()
    fresh = CPTree(pg.graph, pg.all_labels(), pg.taxonomy, validate=False)
    if encode_payload(pg, maintained) != encode_payload(pg, fresh):
        return False
    if maintained._head_map != fresh._head_map:
        return False
    if maintained.num_vertices != fresh.num_vertices:
        return False
    for label in fresh.labels():
        node, other = maintained.node(label), fresh.node(label)
        if node.vertices != other.vertices:
            return False
        if _links(node) != _links(other):
            return False
    return True


def measure_update_throughput(
    pg_factory: Callable[[], ProfiledGraph],
    dataset: str,
    edits: Sequence["GraphUpdate"],
    rebuild_cap: int = 3,
    query: Optional[Vertex] = None,
    k: int = DEFAULT_K,
) -> UpdateThroughputReport:
    """The canonical incremental-vs-rebuild update measurement.

    Both modes replay the same concrete edit stream on identically
    generated graphs (``pg_factory`` must return a fresh instance per
    call). The rebuild mode times up to ``rebuild_cap`` edits, each
    followed by a full index rebuild (rebuilds dominate, a few suffice).
    The incremental mode routes every edit through a warm
    :class:`~repro.engine.explorer.CommunityExplorer` one at a time. When
    ``query`` is given, it is re-explored after every edit so cache
    invalidation is exercised alongside maintenance.
    """
    from repro.engine.explorer import CommunityExplorer
    from repro.engine.updates import GraphUpdate, apply_update

    edits = [GraphUpdate.coerce(edit) for edit in edits]
    if not edits:
        raise ValueError("need at least one edit")

    # --- rebuild-per-edit strawman.
    pg_cold = pg_factory()
    pg_cold.index()
    cold_edits = edits[: max(1, rebuild_cap)]
    start = time.perf_counter()
    for op in cold_edits:
        apply_update(pg_cold, op)
        pg_cold.index(rebuild=True)
    rebuild_seconds = time.perf_counter() - start

    # --- incremental maintenance through the engine.
    pg_inc = pg_factory()
    explorer = CommunityExplorer(pg_inc)
    explorer.warm()
    if query is not None:
        explorer.explore(query, k=k)
    seconds_by_op: Dict[str, List[float]] = {}
    start = time.perf_counter()
    for op in edits:
        receipt = explorer.apply_updates([op])
        seconds_by_op.setdefault(op.op, []).append(receipt.seconds)
        if query is not None and query in pg_inc:
            explorer.explore(query, k=k)
    incremental_seconds = time.perf_counter() - start

    stats = explorer.stats()
    return UpdateThroughputReport(
        dataset=dataset,
        num_edits=len(edits),
        rebuild_edits=len(cold_edits),
        rebuild_ms_per_edit=rebuild_seconds / len(cold_edits) * 1000.0,
        incremental_ms_per_edit=incremental_seconds / len(edits) * 1000.0,
        maintenance_ms_per_edit=stats.maintenance_seconds / len(edits) * 1000.0,
        updates_applied=stats.updates_applied,
        invalidations=stats.invalidations,
        consistent=index_matches_fresh_build(pg_inc),
        ms_per_edit_by_op={
            op: sum(seconds) / len(seconds) * 1000.0
            for op, seconds in sorted(seconds_by_op.items())
        },
    )


def measure_cold_warm(
    pg: ProfiledGraph,
    workload: Workload,
    method: str = "adv-P",
    cold_query_cap: int = 3,
    repeat_factor: int = 1,
) -> ColdWarmReport:
    """The canonical cold-vs-warm engine measurement.

    Shared by ``repro bench-engine`` and the acceptance benchmark so both
    always report identically computed speedups. Cold times up to
    ``cold_query_cap`` queries with a full index rebuild before each (the
    no-reuse strawman; rebuilds dominate, a few queries suffice). Warm
    clears the index, lets a fresh explorer build it once (charged to
    ``warm_index_build_seconds``), then serves the workload via
    :func:`run_throughput`.
    """
    from repro.core.search import pcs
    from repro.engine.explorer import CommunityExplorer

    cold_queries = list(workload)[: max(1, cold_query_cap)]
    start = time.perf_counter()
    for q in cold_queries:
        index = pg.index(rebuild=True)
        pcs(pg, q, workload.k, method=method, index=index)
    cold_seconds = time.perf_counter() - start

    pg.clear_index()  # the engine builds (and is charged for) its own index
    explorer = CommunityExplorer(pg)
    build_seconds = explorer.warm()
    report = run_throughput(
        explorer, workload, method=method, repeat_factor=repeat_factor
    )
    return ColdWarmReport(
        cold_query_count=len(cold_queries),
        cold_seconds_per_query=cold_seconds / len(cold_queries),
        warm_index_build_seconds=build_seconds,
        throughput=report,
    )
