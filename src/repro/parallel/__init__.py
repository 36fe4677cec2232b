"""repro.parallel — process-pool execution for batches and index builds.

The serving stack below this package is single-process; this package is
how it uses a whole machine:

* :class:`~repro.parallel.explorer.ParallelExplorer` — a drop-in
  :class:`~repro.engine.explorer.CommunityExplorer` that shards each
  batch's deduplicated cache misses across worker processes and merges
  results (and their cache entries) back, falling back to in-process
  execution whenever parallelism wouldn't pay;
* :class:`~repro.parallel.pool.WorkerPool` — worker lifecycle: the
  profiled graph is snapshot-encoded to each worker once
  (:mod:`repro.parallel.ship`), engines and indexes live worker-locally,
  and mutation invalidates the fleet by version comparison;
* :func:`~repro.parallel.build.build_cptree_parallel` — CP-tree
  construction with the label set sharded across the same fleet and
  merged via :meth:`repro.index.cptree.CPTree.from_parts`;
* :func:`~repro.parallel.pool.decide_batch_mode` — the single
  inline-vs-process decision rule, shared with
  :meth:`repro.api.planner.QueryPlanner.plan_batch`.

Front doors: ``CommunityService(pg, parallel=N)``, ``repro batch
--parallel N``, ``repro serve --parallel N`` (coalesced HTTP batches shard
across the fleet), and ``bench/workloads`` throughput helpers on a
:class:`ParallelExplorer`.
"""

from repro.parallel.build import (
    build_cptree_parallel,
    build_shard_cltrees,
    label_weights,
    merge_shard_builds,
    shard_labels,
)
from repro.parallel.explorer import ParallelExplorer
from repro.parallel.pool import (
    PARALLEL_BATCH_THRESHOLD,
    TINY_GRAPH_VERTICES,
    WorkerPool,
    decide_batch_mode,
    recommended_workers,
)
from repro.parallel.ship import reanchor_result, ship_graph, unship_graph

__all__ = [
    "ParallelExplorer",
    "WorkerPool",
    "PARALLEL_BATCH_THRESHOLD",
    "TINY_GRAPH_VERTICES",
    "decide_batch_mode",
    "recommended_workers",
    "build_cptree_parallel",
    "build_shard_cltrees",
    "merge_shard_builds",
    "shard_labels",
    "label_weights",
    "ship_graph",
    "unship_graph",
    "reanchor_result",
]
