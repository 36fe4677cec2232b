"""The process-parallel engine: a drop-in explorer that shards batches.

:class:`ParallelExplorer` *is a* :class:`~repro.engine.explorer.CommunityExplorer`
— same cache, same validation, same provenance, same mutation pipeline.
It overrides exactly two things:

* **batch execution** — the deduplicated cache misses of
  ``explore_many``/``serve_batch`` are sharded across a
  :class:`~repro.parallel.pool.WorkerPool` when
  :func:`~repro.parallel.pool.decide_batch_mode` says the batch is worth
  it (enough misses, non-tiny graph, more than one worker). Everything
  else — single queries, small batches, tiny graphs, ``parallel=1`` —
  runs in-process on the inherited path;
* **warm-up** — :meth:`ParallelExplorer.warm` builds the CP-tree by
  sharding the label set across the same fleet
  (:func:`~repro.parallel.build.build_cptree_parallel`) and pre-warms the
  workers' own indexes.

Results computed by workers merge back into the parent's shared LRU at the
snapshot version the fleet was bootstrapped with, so subsequent requests —
sequential or parallel — hit cache exactly as if the batch had run
in-process. Mutations through :meth:`apply_updates` (or the graph's own
versioned API) bump the graph version; the pool notices on its next use
and re-ships the graph to a fresh fleet.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.profiled_graph import ProfiledGraph
from repro.engine.explorer import CommunityExplorer
from repro.errors import InvalidInputError
from repro.parallel.build import build_cptree_parallel
from repro.parallel.pool import (
    PARALLEL_BATCH_THRESHOLD,
    TINY_GRAPH_VERTICES,
    WorkerPool,
    decide_batch_mode,
    recommended_workers,
)
from repro.parallel.ship import reanchor_result


class ParallelExplorer(CommunityExplorer):
    """A :class:`CommunityExplorer` whose batches fan out across processes.

    Parameters
    ----------
    pg:
        The profiled graph to serve.
    processes:
        Worker process count (default: the host's usable cores). ``1``
        degenerates to a plain in-process explorer — the pool is never
        started.
    min_batch:
        Minimum deduplicated cache misses before a batch leaves the
        process (default :data:`PARALLEL_BATCH_THRESHOLD`).
    tiny_graph_vertices:
        Graphs below this vertex count always serve in-process (default
        :data:`TINY_GRAPH_VERTICES`; the differential tests set ``0`` to
        force tiny fixtures through the real process path).
    mp_context:
        Optional ``multiprocessing`` context forwarded to the pool.
    **kwargs:
        Everything :class:`CommunityExplorer` accepts (``cache_size``,
        ``default_k`` …). Requests are resolved here, once; workers
        receive resolved keys and need none of it.
    """

    def __init__(
        self,
        pg: ProfiledGraph,
        processes: Optional[int] = None,
        min_batch: int = PARALLEL_BATCH_THRESHOLD,
        tiny_graph_vertices: int = TINY_GRAPH_VERTICES,
        mp_context=None,
        **kwargs,
    ) -> None:
        super().__init__(pg, **kwargs)
        if processes is not None and processes < 1:
            raise InvalidInputError(f"processes must be >= 1, got {processes}")
        if min_batch < 2:
            raise InvalidInputError(f"min_batch must be >= 2, got {min_batch}")
        self.processes = processes or recommended_workers()
        self.min_batch = min_batch
        self.tiny_graph_vertices = tiny_graph_vertices
        self._pool = WorkerPool(
            pg,
            processes=self.processes,
            mp_context=mp_context,
            # apply_updates holds this lock for its whole batch, so graph
            # snapshots can never capture a half-applied mutation.
            snapshot_lock=self._index_lock,
        )

    # ------------------------------------------------------------------
    # the two overridden behaviours
    # ------------------------------------------------------------------
    def _execute_pending(self, pending: List[Tuple]) -> dict:
        mode, _ = decide_batch_mode(
            len(pending),
            self.processes,
            min_batch=self.min_batch,
            tiny_graph=self.pg.num_vertices < self.tiny_graph_vertices,
        )
        if mode != "process":
            return super()._execute_pending(pending)
        # run() reports the version of the snapshot it actually executed
        # on (the fleet may be re-shipped mid-call by a racing mutation).
        outcomes, version = self._pool.run(pending)
        with self._counters.lock:
            self._counters.queries_served += len(pending)
        taxonomy = self.pg.taxonomy
        # Workers compute on an immutable snapshot, so every result is
        # exact at the shipped version — tag it so, even if the parent
        # graph moved mid-batch (the entry then invalidates on its next
        # lookup, exactly like any other stale entry).
        return {
            key: (reanchor_result(result, taxonomy), version)
            for key, result in outcomes.items()
        }

    def warm(self, workers_too: bool = True) -> float:
        """Build the CP-tree by sharding labels across the fleet.

        Falls back to the sequential build for tiny graphs or a single
        worker (inside :func:`build_cptree_parallel`). With
        ``workers_too`` (default) the fleet also pre-builds its own
        worker-local indexes so the first parallel batch of index-backed
        queries doesn't pay them. Returns parent-side seconds spent, as
        the base ``warm`` does; idempotent on a warm engine.
        """
        import time

        start = time.perf_counter()
        if not self.pg.has_index():
            with self._index_lock:
                if not self.pg.has_index():
                    index = build_cptree_parallel(self.pg, pool=self._pool)
                    self.pg.adopt_index(index)
                    with self._counters.lock:
                        self._counters.index_builds += 1
                        self._counters.index_build_seconds += (
                            time.perf_counter() - start
                        )
        else:
            self.index()  # flush journaled repairs, as base warm() does
        if workers_too and self.processes > 1 and not (
            self.pg.num_vertices < self.tiny_graph_vertices
        ):
            self._pool.warm()
        return time.perf_counter() - start

    # ------------------------------------------------------------------
    # lifecycle & introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker fleet down (restarts lazily if used again)."""
        self._pool.close()

    def __enter__(self) -> "ParallelExplorer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def pool(self) -> WorkerPool:
        return self._pool

    def pool_stats(self) -> dict:
        """Fleet provenance: worker count, shipped version, restarts."""
        return {
            "processes": self.processes,
            "min_batch": self.min_batch,
            "running": self._pool.running,
            "shipped_version": self._pool.shipped_version,
            "restarts": self._pool.restarts,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelExplorer({self.pg!r}, processes={self.processes}, "
            f"pool={'up' if self._pool.running else 'down'})"
        )
