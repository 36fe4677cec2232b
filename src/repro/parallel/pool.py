"""The worker pool: process lifecycle, graph shipping, shard execution.

One :class:`WorkerPool` owns a ``ProcessPoolExecutor`` serving one profiled
graph at one version. The expensive part of process parallelism is worker
bootstrap, so the pool amortises it:

* the graph crosses the process boundary as the snapshot codec's image
  (:func:`repro.storage.snapshot_bytes` /
  :func:`~repro.storage.load_snapshot_bytes`) — the same bytes disk boot
  and replica bootstrap use — **once per worker lifetime** (a pool
  initializer argument), not per batch. When the parent has a CP-tree the
  image carries it and the worker adopts the decoded index, so the index
  is built once per session, in the parent, and no worker ever peels one;
* batches ship only query keys out and :class:`PCSResult` lists back,
  sharded round-robin so heterogeneous query costs interleave across
  workers;
* mutations invalidate the fleet wholesale: :meth:`WorkerPool.ensure`
  compares the served graph's version — and whether it has an index —
  against what was shipped and restarts the pool when the parent is
  ahead. The image is taken under the caller-provided ``snapshot_lock``
  (the engine's index lock, which
  :meth:`~repro.engine.explorer.CommunityExplorer.apply_updates` holds
  for its whole batch), so graph, index and version are always a
  consistent triple even while mutations race. Workers then compute on
  that immutable snapshot, so every parallel result is exact at the
  shipped version by construction (the in-process engine needs a
  version-stable retry loop for the same guarantee).

Registered cohesion models travel into workers as a registry snapshot
(classes pickled by reference), so runtime registrations resolve under
``spawn`` start methods too — as long as the class itself is picklable
(importable module, not ``__main__``-local); unpicklable registrations
are silently skipped and such cohesion names only work under ``fork``.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.core.community import PCSResult
from repro.core.profiled_graph import ProfiledGraph
from repro.errors import InvalidInputError
from repro.storage import SnapshotError, load_snapshot_bytes, snapshot_bytes

#: Pending cache misses below this count run in-process: shard dispatch and
#: result unpickling cost more than a few queries are worth.
PARALLEL_BATCH_THRESHOLD = 4

#: Graphs smaller than this (vertices) are always served in-process —
#: shipping one costs more than computing on it.
TINY_GRAPH_VERTICES = 200


def recommended_workers() -> int:
    """The process count this host can actually run concurrently.

    Respects CPU affinity (containers and CI runners routinely restrict it
    below ``os.cpu_count()``).
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def decide_batch_mode(
    batch_size: int,
    processes: Optional[int],
    min_batch: int = PARALLEL_BATCH_THRESHOLD,
    tiny_graph: bool = False,
) -> Tuple[str, str]:
    """``("process" | "inline", reason)`` for one batch.

    The single decision rule shared by the execution layer
    (:class:`~repro.parallel.explorer.ParallelExplorer` gates each batch's
    cache misses on it) and the query planner
    (:meth:`repro.api.planner.QueryPlanner.plan_batch` reports it for whole
    batches), so serving and planning can never disagree on when process
    parallelism engages.
    """
    if processes is None or processes <= 1:
        return "inline", "no process pool configured (parallel <= 1)"
    if tiny_graph:
        return (
            "inline",
            f"graph below {TINY_GRAPH_VERTICES} vertices: shipping it costs "
            "more than computing on it",
        )
    if batch_size < min_batch:
        return (
            "inline",
            f"batch of {batch_size} below the {min_batch}-query threshold: "
            "shard dispatch would dominate",
        )
    return "process", f"batch of {batch_size} shards across {processes} workers"


# ----------------------------------------------------------------------
# worker-side module state (one engine per worker process)
# ----------------------------------------------------------------------
_WORKER_ENGINE = None


def _registry_snapshot() -> dict:
    """Picklable subset of the cohesion registry for worker bootstrap.

    Classes pickle by reference (module + qualname), so anything importable
    survives a ``spawn`` worker; ``__main__``-local or otherwise
    unpicklable registrations are skipped (they keep working under
    ``fork``, which inherits the registry wholesale).
    """
    import pickle as _pickle

    from repro.core.cohesion import _REGISTRY

    snapshot = {}
    for name, cls in _REGISTRY.items():
        try:
            _pickle.dumps(cls)
        # repro-lint: disable=api-hygiene -- skipping unpicklable registrations is the documented contract (they still work under fork); any error just means "not shippable"
        except Exception:
            continue
        snapshot[name] = cls
    return snapshot


def _bootstrap_worker(image: bytes, registry: dict) -> None:
    """Pool initializer: decode the image once, build the worker engine.

    The decoded graph arrives with the parent's CP-tree installed when
    the image has an index section. ``registry`` re-plays the parent's
    runtime cohesion registrations — a ``spawn`` worker starts with only
    the built-ins.
    """
    global _WORKER_ENGINE
    from repro.core.cohesion import _REGISTRY
    from repro.engine.explorer import CommunityExplorer

    for name, cls in registry.items():
        _REGISTRY.setdefault(name, cls)
    _WORKER_ENGINE = CommunityExplorer(load_snapshot_bytes(image))


def _serve_shard(keys: List[Tuple]) -> List[PCSResult]:
    """Execute one shard of resolved query keys on the worker's engine.

    Keys arrive fully resolved (:meth:`Query.cache_key` under the parent
    session's defaults), so the worker bypasses its own result cache and
    request resolution — a request is resolved once, in the parent, and
    result caching stays the parent's job (results merge into the shared
    LRU there).
    """
    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker used before bootstrap")
    return [engine._run(*key) for key in keys]


class WorkerPool:
    """A process pool bound to one profiled graph snapshot.

    Parameters
    ----------
    pg:
        The graph to serve. Its snapshot image (graph, plus the CP-tree
        when it has one) is taken when the pool starts; :meth:`ensure`
        takes a new one after mutations.
    processes:
        Worker count (default: :func:`recommended_workers`).
    mp_context:
        Optional ``multiprocessing`` context (e.g. a ``"spawn"`` context
        for fork-unsafe embedders); default is the platform default.
    snapshot_lock:
        Context manager held while the image is encoded and its version
        read, so mutators that take the same lock (the engine's index
        lock: ``apply_updates`` holds it for every batch) can never tear
        the snapshot. Default: no locking — correct for graphs that are
        quiescent while the pool starts. Always acquired *before* the
        pool's own lock; callers must not hold the pool lock when they
        take it elsewhere.
    """

    def __init__(
        self,
        pg: ProfiledGraph,
        processes: Optional[int] = None,
        mp_context=None,
        snapshot_lock=None,
    ) -> None:
        if processes is not None and processes < 1:
            raise InvalidInputError(f"processes must be >= 1, got {processes}")
        self.pg = pg
        self.processes = processes or recommended_workers()
        self._mp_context = mp_context
        self._executor: Optional[ProcessPoolExecutor] = None
        self._shipped_version: int = -1
        self._shipped_index = False
        self._restarts = 0
        self._lock = threading.Lock()
        self._snapshot_lock = snapshot_lock or contextlib.nullcontext()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether a worker fleet is currently alive."""
        with self._lock:
            return self._executor is not None

    @property
    def shipped_version(self) -> int:
        """Graph version the current worker fleet was bootstrapped with."""
        with self._lock:
            return self._shipped_version

    @property
    def restarts(self) -> int:
        """Times the fleet was rebuilt (first start included)."""
        with self._lock:
            return self._restarts

    def ensure(self) -> int:
        """Start (or restart) the fleet so it serves the current graph.

        Returns the version the running workers reflect — equal to
        ``pg.version`` at the moment of the (lock-protected) check. The
        fleet is torn down and bootstrapped from a fresh image when the
        parent is ahead of what the workers hold: the graph mutated since
        shipping, or the parent has built a CP-tree the workers were
        started without. The image and its version are read under
        ``snapshot_lock``, so engine-routed mutations can never be
        half-captured. A graph the snapshot codec refuses (it encodes int
        and str vertices) raises :class:`~repro.errors.InvalidInputError`
        naming the offending vertex type.
        """
        # Lock order: snapshot_lock (the engine's index lock) strictly
        # before the pool lock.
        with self._snapshot_lock:
            with self._lock:
                version, indexed = self.pg.version, self.pg.has_index()
                if (
                    self._executor is not None
                    and version == self._shipped_version
                    and (self._shipped_index or not indexed)
                ):
                    return version
                self._shutdown_locked()
                try:
                    image = snapshot_bytes(self.pg)
                except SnapshotError as exc:
                    raise InvalidInputError(
                        f"cannot ship this graph to worker processes: {exc}"
                    ) from exc
                self._executor = ProcessPoolExecutor(
                    max_workers=self.processes,
                    mp_context=self._mp_context,
                    initializer=_bootstrap_worker,
                    initargs=(image, _registry_snapshot()),
                )
                self._shipped_version = version
                self._shipped_index = indexed
                self._restarts += 1
                return version

    def close(self) -> None:
        """Shut the fleet down; the pool restarts on the next :meth:`ensure`."""
        with self._lock:
            self._shutdown_locked()

    def _shutdown_locked(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
            self._shipped_version = -1

    def __enter__(self) -> "WorkerPool":
        self.ensure()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def shard(self, keys: List[Tuple]) -> List[List[Tuple]]:
        """Split ``keys`` round-robin into at most ``processes`` shards.

        Round-robin (not contiguous blocks): neighbouring batch entries
        often have correlated cost — a client exploring one region, a
        workload sorted by vertex — and interleaving spreads hot spots
        across the fleet.
        """
        width = min(self.processes, len(keys))
        return [keys[i::width] for i in range(width)]

    def submit_all(self, fn, arg_tuples: List[Tuple]) -> Tuple[List, int]:
        """Submit ``fn(*args)`` per entry; ``(futures, shipped_version)``.

        The executor and the version it was bootstrapped with are read
        atomically, so the returned version is exactly the snapshot every
        returned future computes against — even if another thread restarts
        the fleet mid-call. A close()/restart racing between the read and
        the submits is retried once (the executor rejects new work after
        shutdown), then surfaces as the executor's own error.
        """
        last_error: Optional[BaseException] = None
        for attempt in (0, 1):
            self.ensure()
            with self._lock:
                executor, version = self._executor, self._shipped_version
            if executor is None:  # closed between ensure() and the read
                last_error = RuntimeError("worker pool closed while submitting")
                continue
            try:
                return [executor.submit(fn, *args) for args in arg_tuples], version
            except RuntimeError as exc:
                last_error = exc
        raise last_error

    def run(self, keys: List[Tuple]) -> Tuple[Dict[Tuple, PCSResult], int]:
        """Execute ``keys`` across the fleet.

        Returns ``({key: result}, version)`` where ``version`` is the graph
        version of the snapshot the results were computed on. Shards are
        dispatched concurrently and collected in shard order — the caller
        re-aligns by key, so shard scheduling never affects result order.
        Raises whatever a worker raised (first shard first); the pool
        survives worker exceptions. An empty ``keys`` returns at once and
        starts no fleet.
        """
        if not keys:
            return {}, self.pg.version
        shards = self.shard(keys)
        futures, version = self.submit_all(_serve_shard, [(s,) for s in shards])
        merged: Dict[Tuple, PCSResult] = {}
        for shard, future in zip(shards, futures):
            merged.update(zip(shard, future.result()))
        return merged, version

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            running = self._executor is not None
            state = f"v{self._shipped_version}" if running else "stopped"
        return f"WorkerPool(processes={self.processes}, {state})"
