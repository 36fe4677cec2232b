"""The process-parallel engine: a drop-in explorer that shards batches.

:class:`ParallelExplorer` *is a* :class:`~repro.engine.explorer.CommunityExplorer`
— same cache, same validation, same provenance, same mutation pipeline,
same :meth:`~repro.engine.explorer.CommunityExplorer.warm`. It overrides
exactly one thing, **batch execution**: the deduplicated cache misses of
a :meth:`~repro.engine.explorer.CommunityExplorer.serve` batch are
sharded across a :class:`~repro.parallel.pool.WorkerPool` when
:func:`~repro.parallel.pool.decide_batch_mode` says the batch is worth it
(enough misses, non-tiny graph, more than one worker). Everything else —
single queries, small batches, tiny graphs, ``parallel=1`` — runs
in-process on the inherited path.

The CP-tree is built once per session, in the parent: before the first
index-backed shard leaves the process the parent builds its index (edits
keep it patched), and the fleet boots from the snapshot image that
carries it, so no worker ever builds one. Results computed by workers
merge back into the parent's shared LRU at the snapshot version the fleet
was bootstrapped with, so subsequent requests — sequential or parallel —
hit cache exactly as if the batch had run in-process. Mutations through
:meth:`apply_updates` (or the graph's own versioned API) bump the graph
version; the pool notices on its next use and ships a fresh image to a
fresh fleet.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.core.community import PCSResult
from repro.core.profiled_graph import ProfiledGraph
from repro.engine.explorer import CommunityExplorer
from repro.errors import InvalidInputError
from repro.parallel.pool import (
    PARALLEL_BATCH_THRESHOLD,
    TINY_GRAPH_VERTICES,
    WorkerPool,
    decide_batch_mode,
    recommended_workers,
)
from repro.ptree.ptree import PTree
from repro.ptree.taxonomy import Taxonomy


def reanchor_result(result: PCSResult, taxonomy: Taxonomy) -> PCSResult:
    """Re-tie a worker-computed result's subtrees to the parent taxonomy.

    Unpickled results reference the worker's taxonomy *copy*; subtree node
    ids are identical, only the anchoring object differs (``PTree``
    equality requires the same taxonomy object, and downstream code may
    feed subtrees back into taxonomy-checked APIs). Rebuilds each
    community with a parent-anchored :class:`PTree` (node sets were
    validated at construction, so the copies skip the closure check) and
    returns the same :class:`PCSResult` mutated in place.
    """
    result.communities = [
        dataclasses.replace(
            community,
            subtree=PTree(taxonomy, community.subtree.nodes, _validated=True),
        )
        for community in result.communities
    ]
    return result


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
    # the one overridden behaviour
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
        # The index is built once, here: workers adopt it from the image
        # (the pool re-ships when the parent's index is ahead of theirs).
        if any(self.method_uses_index(method) for _, _, method, _ in pending):
            self.index()
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
