"""repro.parallel — process-pool execution for batches.

The serving stack below this package is single-process; this package is
how it uses a whole machine:

* :class:`~repro.parallel.explorer.ParallelExplorer` — a drop-in
  :class:`~repro.engine.explorer.CommunityExplorer` that shards each
  batch's deduplicated cache misses across worker processes and merges
  results (and their cache entries) back, falling back to in-process
  execution whenever parallelism wouldn't pay;
* :class:`~repro.parallel.pool.WorkerPool` — worker lifecycle: each
  worker boots once from the snapshot codec's image
  (:func:`repro.storage.snapshot_bytes`: the graph plus the parent's
  CP-tree when it has one — the same bytes disk boot and replica
  bootstrap use), so the index is built once per session, in the parent,
  and mutation invalidates the fleet by version comparison;
* :func:`~repro.parallel.pool.decide_batch_mode` — the single
  inline-vs-process decision rule, shared with
  :meth:`repro.api.planner.QueryPlanner.plan_batch`.

Front doors: ``CommunityService(pg, parallel=N)``, ``repro batch
--parallel N``, ``repro serve --parallel N`` (coalesced HTTP batches shard
across the fleet), and ``bench/workloads`` throughput helpers on a
:class:`ParallelExplorer`.
"""

from repro.parallel.explorer import ParallelExplorer, reanchor_result
from repro.parallel.pool import (
    PARALLEL_BATCH_THRESHOLD,
    TINY_GRAPH_VERTICES,
    WorkerPool,
    decide_batch_mode,
    recommended_workers,
)

__all__ = [
    "ParallelExplorer",
    "WorkerPool",
    "PARALLEL_BATCH_THRESHOLD",
    "TINY_GRAPH_VERTICES",
    "decide_batch_mode",
    "recommended_workers",
    "reanchor_result",
]
