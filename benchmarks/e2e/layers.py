"""The traced pass: where one request's time goes, layer by layer.

End-to-end numbers always come from the untraced HTTP pass in
:mod:`workloads`. This pass runs in-process, apart from it, and produces
the per-layer metrics:

1. a fixed sample of the workload (about 40 answers or writes) is played
   twice through the server's transport-free request cycle
   (``repro.server.app.handle_request``), first untraced, then traced on
   a second, freshly built copy of the stack so both passes do the same
   operations; the difference is ``trace.overhead_share``;
2. the workload then continues over real sockets against the same
   gateway, started with its default coalescer, for the counters that
   only exist there (``/stats``) and the latency tail;
3. a traced write sample (the ``mixed-rw`` rounds) and a set of direct
   probes of each layer's public functions give the rest.

Layers are the packages under ``src/repro``. ``parallel``,
``replication``, ``baselines``, ``metrics``, ``analysis``, ``datasets``,
``lint`` and ``viz`` are out of scope: none is on the path of a request to
a single-process server on a 2-core host.
"""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.api import CommunityService, Query
from repro.core import search
from repro.datasets import load_dataset
from repro.dynamic.core_maintenance import DynamicCoreIndex
from repro.engine.updates import GraphUpdate
from repro.graph.core import core_numbers, k_core_within
from repro.graph.csr import csr_view
from repro.ptree.enumeration import addable_nodes, enumerate_subtrees
from repro.server import CommunityGateway, app
from repro.server.coalescer import RequestCoalescer
from repro.storage.snapshot import load_snapshot_bytes, snapshot_bytes
from repro.storage.wal import WriteAheadLog

from serving import Connection
from tracing import Tracer
from workloads import (
    DATASET, EDITS_PER_UPDATE, GRAPH_SEED, K, METHOD, SCALE, WORKLOADS,
    MixedRW, Recorder, drive_lanes, envelopes, query_payload,
)

#: Timed operations in the workload sample: about 40 answers or writes.
SAMPLE_OPS = {"point-cold": 40, "point-hot": 40, "batch-sweep": 4, "mixed-rw": 42}
#: Fixed queries per direct probe (the medians below are over these).
PROBE_QUERIES = 20
#: Bounds of the workload's continuation over real sockets.
HTTP_SECONDS = 3.0
HTTP_MAX_OPS = 400
PCS_METHODS = ("basic", "incre", "adv-I", "adv-D", "adv-P")

Metrics = Dict[str, Tuple[float, str]]


MS, US = 1e3, 1e6


def median_of(fn: Callable, items: Iterable, scale: float) -> float:
    """Median wall time of ``fn(item)`` over ``items``, times ``scale``."""
    times = []
    for item in items:
        start = time.perf_counter()
        fn(item)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * scale


class InProcessConnection:
    """The server's request cycle, called on this thread, no socket."""

    def __init__(self, gateway: CommunityGateway, tracer: Tracer) -> None:
        self._gateway = gateway
        self._tracer = tracer
        self._count = itertools.count()

    def post(self, path: str, payload) -> Tuple[int, object]:
        self._tracer.request_id = f"{path}#{next(self._count)}"
        response = app.handle_request(
            self._gateway, "POST", path, json.dumps(payload).encode("utf-8")
        )
        return response.status, json.loads(response.body)

    def close(self) -> None:
        pass


@dataclass
class _Stack:
    """One freshly built serving stack and the workload planned on it."""

    workload: object
    gateway: CommunityGateway
    build_seconds: float
    data_dir: Optional[Path]

    def close(self) -> None:
        self.gateway.close()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)


def _build_stack(name: str, seed: int, scale: float, scratch: Path) -> _Stack:
    pg = load_dataset(DATASET, scale=scale, seed=GRAPH_SEED)
    workload = WORKLOADS[name](pg, seed)
    data_dir = None
    if workload.durable:
        scratch.mkdir(parents=True, exist_ok=True)
        data_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=scratch))
    service = CommunityService(pg, storage_dir=data_dir)
    build_seconds = service.warm()
    return _Stack(workload, CommunityGateway(service, port=0), build_seconds, data_dir)


def _play(workload, gateway, tracer: Tracer, ops: int, traced: bool) -> Tuple[Recorder, int]:
    """Warm up untraced, then drive ``ops`` timed operations in-process.

    Returns the recorder and how many PCS computations the drive executed.
    """
    conn = InProcessConnection(gateway, tracer)
    rec = Recorder(seconds=float("inf"), max_ops=ops)
    rec.phase = "warmup"
    workload.prepare(rec, conn)
    served_before = gateway.service.stats().queries_served
    tracer.enabled = traced
    try:
        rec.begin_timed()
        workload.drive(rec, conn, 0)
    finally:
        tracer.enabled = False
    return rec, gateway.service.stats().queries_served - served_before


def _timed_seconds(rec: Recorder) -> float:
    return sum(s.end - s.start for s in rec.samples if s.phase == "timed")


# ----------------------------------------------------------------------
# section 2: the workload over real sockets, default coalescer
# ----------------------------------------------------------------------
def _http_continuation(stack: _Stack, recorders: List[Recorder]) -> Metrics:
    gateway, workload = stack.gateway, stack.workload
    gateway.start()
    port = gateway.address[1]
    lanes = [Connection(port) for _ in range(workload.connections)]
    rec = Recorder(HTTP_SECONDS, HTTP_MAX_OPS)
    recorders.append(rec)
    try:
        drive_lanes(workload, rec, lanes)
        stats = gateway.stats()
    finally:
        for conn in lanes:
            conn.close()
    latencies = sorted(s.ms for s in rec.timed("read") if s.failure is None)
    p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))] if latencies else 0.0
    coalescer = stats["coalescer"] or {}
    return {
        "server.request_p95_ms": (p95, "ms"),
        "server.coalescer_mean_batch": (coalescer.get("mean_batch_size", 0.0), "count"),
        "server.rejected": (coalescer.get("rejected", 0), "count"),
    }


# ----------------------------------------------------------------------
# section 3: direct probes of each layer's public functions
# ----------------------------------------------------------------------
def _server_probes(service: CommunityService, vertices: List) -> Metrics:
    """Socket and coalescer cost of a cached ``/query``, each minus the
    same ``service.query`` called directly (medians over the probe
    vertices: an answer's size, 1-150 KB, sets its encoding time)."""
    queries = [Query.from_dict(query_payload(v)) for v in vertices]
    for query in queries:
        service.query(query)  # now cached
    direct_ms = median_of(service.query, queries * 2, MS)
    with CommunityGateway(service, port=0, coalesce=False) as gateway:
        with Connection(gateway.address[1]) as conn:
            http_ms = median_of(
                lambda v: conn.post("/query", query_payload(v)), vertices * 2, MS)
    coalescer = RequestCoalescer(service)
    try:
        queued_ms = median_of(coalescer.submit, queries * 2, MS)
    finally:
        coalescer.close()
    return {
        "server.http_roundtrip_ms": (http_ms - direct_ms, "ms"),
        "server.coalescer_wait_ms": (queued_ms - direct_ms, "ms"),
        "engine.cache_hit_us": (direct_ms * 1000.0, "us"),
    }


def _api_probes(service: CommunityService, vertices: List) -> Metrics:
    payloads = [query_payload(v) for v in vertices]
    queries = [Query.from_dict(p) for p in payloads]
    points = [service.query(q) for q in queries]
    sweep = service.batch([Query.from_dict(query_payload(v, k))
                           for v in vertices[:2] for k in (3, 4, 5, 6, 7, 8)])

    # The gateway encodes with indent=2; the probe encodes the same way.
    def encode_point(response):
        return json.dumps(response.to_dict(), indent=2)

    def encode_sweep(_):
        return json.dumps({"results": [r.to_dict() for r in sweep]}, indent=2)

    return {
        "api.query_parse_us": (median_of(Query.from_dict, payloads * 5, US), "us"),
        "api.plan_us": (median_of(service.plan, queries * 5, US), "us"),
        "api.serialise_point_us": (median_of(encode_point, points, US), "us"),
        "api.serialise_batch_ms": (median_of(encode_sweep, range(5), MS), "ms"),
        "api.response_bytes_point": (
            statistics.median(len(encode_point(r).encode("utf-8")) for r in points), "B"),
        "api.response_bytes_batch": (len(encode_sweep(0).encode("utf-8")), "B"),
    }


def _core_probes(service: CommunityService, vertices: List) -> Metrics:
    pg = service.pg
    index = pg.index()
    out: Metrics = {}
    medians = {}
    for method in PCS_METHODS:
        medians[method] = median_of(
            lambda v: search.pcs(pg, v, K, method=method, index=index), vertices, MS)
        out[f"core.{method}_ms"] = (medians[method], "ms")
    ranked = sorted(medians, key=medians.get)
    # The part of Fig. 14's ordering that is wider than the noise.
    order_ok = ranked[-1] == "basic" and set(ranked[:2]) == {"adv-D", "adv-P"}
    out["core.fig14_order_ok"] = (1 if order_ok else 0, "count")
    # Once more under a tracer: verifications, and the kernels' share of a
    # cold query as the spans see it (graph self time / time in pcs).
    with Tracer() as tracer:
        tracer.enabled = True
        verifications = [
            search.pcs(pg, v, K, method=METHOD, index=index).num_verifications
            for v in vertices]
    kernel_ms = sum(ms for name, ms in tracer.self_times().items()
                    if name.startswith("graph."))
    out["graph.kernel_share_cold"] = (kernel_ms / tracer.total_ms("core.pcs"), "ratio")
    out["core.verifications_per_query"] = (statistics.mean(verifications), "count")

    # Cold ``service.query`` minus direct ``pcs``, paired per vertex and
    # back to back so that host drift between the two cancels.
    query_of = {v: Query.from_dict(query_payload(v)) for v in vertices}

    def overhead(vertex) -> float:
        service.clear_cache()
        start = time.perf_counter()
        service.query(query_of[vertex])
        middle = time.perf_counter()
        search.pcs(pg, vertex, K, method=METHOD, index=index)
        return (middle - start) - (time.perf_counter() - middle)

    out["engine.overhead_ms"] = (statistics.median(map(overhead, vertices)) * MS, "ms")
    return out


def _index_ptree_graph_probes(service: CommunityService, vertices: List) -> Metrics:
    pg = service.pg
    index, graph, taxonomy = pg.index(), pg.graph, pg.taxonomy
    lookups = [(v, label) for v in vertices for label in sorted(pg.labels(v))]
    get_us = median_of(lambda vl: index.get(K, vl[0], vl[1]), lookups, US)

    def enumerate_some(vertex) -> int:
        addable_nodes(taxonomy, pg.labels(vertex), frozenset((taxonomy.root,)))
        return sum(1 for _ in itertools.islice(enumerate_subtrees(pg.ptree(vertex)), 200))

    start = time.perf_counter()
    subtrees = sum(enumerate_some(v) for v in vertices)
    enumerate_us = (time.perf_counter() - start) * US / max(subtrees, 1)

    everyone = list(graph.vertex_set())
    dense_ms = median_of(lambda _: k_core_within(graph, everyone, K), range(5), MS)

    def candidate_set(vertex):
        """The smallest CL-tree k-core the query's labels give the kernel."""
        found = (index.get(K, vertex, label) for label in pg.labels(vertex))
        return min((s for s in found if s), key=len, default=frozenset((vertex,)))

    sparse = [(v, candidate_set(v)) for v in vertices]
    sparse_us = median_of(lambda vc: k_core_within(graph, vc[1], K, vc[0]), sparse, US)
    numbers_ms = median_of(lambda _: core_numbers(graph), range(3), MS)

    scratch = graph.copy()
    u, w = everyone[0], everyone[-1]

    def rebuild(_):
        if not scratch.remove_edge(u, w):  # any mutation drops the cached view
            scratch.add_edge(u, w)
        return csr_view(scratch)

    csr_ms = median_of(rebuild, range(3), MS)
    return {
        "index.get_us": (get_us, "us"),
        "ptree.enumerate_us": (enumerate_us, "us"),
        "graph.k_core_dense_ms": (dense_ms, "ms"),
        "graph.k_core_sparse_us": (sparse_us, "us"),
        "graph.core_numbers_ms": (numbers_ms, "ms"),
        "graph.csr_build_ms": (csr_ms, "ms"),
    }


def _dynamic_probe(service: CommunityService, edits: List[dict]) -> Metrics:
    graph = service.pg.graph.copy()
    cores = DynamicCoreIndex(graph)
    toggles = [e for e in edits if e["op"] in ("add_edge", "remove_edge")][:40]

    def toggle(edit):
        if graph.has_edge(edit["u"], edit["v"]):
            cores.remove(edit["u"], edit["v"])
        else:
            cores.insert(edit["u"], edit["v"])

    return {"dynamic.core_maint_us_per_edit": (median_of(toggle, toggles, US), "us")}


def _storage_probes(service: CommunityService, edits: List[dict], scratch: Path) -> Metrics:
    """WAL append (fsync on every record: the program's only flush policy)
    and the snapshot codec."""
    pg = service.pg
    batches = [[GraphUpdate.coerce(e) for e in edits[i:i + EDITS_PER_UPDATE]]
               for i in range(0, 10 * EDITS_PER_UPDATE, EDITS_PER_UPDATE)]
    scratch.mkdir(parents=True, exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="wal-", dir=scratch))
    try:
        path = directory / "probe.wal"
        version = itertools.count(1)
        with WriteAheadLog(path) as wal:
            def append(batch):
                base = next(version)
                wal.append(base - 1, base, batch)

            append_ms = median_of(append, batches, MS)
        wal_bytes = path.stat().st_size
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    images: List[bytes] = []
    encode_ms = median_of(lambda _: images.append(snapshot_bytes(pg)), range(3), MS)
    decode_ms = median_of(lambda _: load_snapshot_bytes(images[0]), range(3), MS)
    return {
        "storage.wal_append_ms": (append_ms, "ms"),
        "storage.wal_bytes_per_edit": (wal_bytes / (len(batches) * EDITS_PER_UPDATE), "B"),
        "storage.snapshot_encode_ms": (encode_ms, "ms"),
        "storage.snapshot_decode_ms": (decode_ms, "ms"),
        "storage.snapshot_bytes": (len(images[0]), "B"),
    }


def _write_metrics(rec: Recorder, tracer: Tracer, subscriptions: dict) -> Metrics:
    """Per-batch write costs from the traced ``mixed-rw`` rounds."""
    updates = [s for s in rec.timed("update") if s.failure is None]
    batches = max(len(updates), 1)
    receipts = [s.body["receipt"] for s in updates]
    reevaluations = subscriptions["reevaluations"]
    decisions = max(subscriptions["subscriptions"] * subscriptions["batches"], 1)
    return {
        "engine.update_apply_ms": (
            statistics.median(r["seconds"] for r in receipts) * MS if receipts else 0.0, "ms"),
        "index.repair_ms_per_batch": (
            tracer.total_ms("index.repair_cptree", under="engine.apply_updates") / batches, "ms"),
        "index.repaired_labels_per_batch": (
            statistics.mean(r["repaired_labels"] for r in receipts) if receipts else 0.0,
            "count"),
        "subscribe.reeval_selectivity": (reevaluations / decisions, "ratio"),
        "subscribe.reeval_ms_per_batch": (
            tracer.total_ms("engine.explore", under="engine.apply_updates") / batches, "ms"),
        "subscribe.events_published": (subscriptions["events_published"], "count"),
    }


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------
@dataclass
class TracedResult:
    metrics: Metrics
    attempted: int
    failed: int
    failures: List[str]
    trace: dict


def run_traced(name: str, seed: int, scratch: Path, scale: float = SCALE) -> TracedResult:
    """The traced in-process pass for ``name``; see the module docstring."""
    ops = SAMPLE_OPS[name]
    recorders: List[Recorder] = []
    metrics: Metrics = {}

    # 1a. untraced sample on its own stack.
    stack = _build_stack(name, seed, scale, scratch)
    try:
        metrics["index.build_s"] = (stack.build_seconds, "s")
        plain, _ = _play(stack.workload, stack.gateway, Tracer(), ops, traced=False)
        recorders.append(plain)
    finally:
        stack.close()

    # 1b. the same operations, traced, on a second stack; then 2.
    stack = _build_stack(name, seed, scale, scratch)
    workload, pg = stack.workload, stack.gateway.service.pg
    try:
        with Tracer() as tracer:
            traced, executed = _play(workload, stack.gateway, tracer, ops, traced=True)
        recorders.append(traced)
        subscription_stats = stack.gateway.subscriptions.stats()
        answers = [e for read in traced.timed("read") if read.failure is None
                   for e in envelopes(read)]
        metrics["engine.cache_hit_rate"] = (
            sum(1 for e in answers if e["cache_hit"]) / max(len(answers), 1), "ratio")
        metrics["engine.batch_dedup_ratio"] = (executed / max(len(answers), 1), "ratio")
        metrics["trace.overhead_share"] = (
            _timed_seconds(traced) / _timed_seconds(plain) - 1.0, "ratio")
        metrics.update(_http_continuation(stack, recorders))
    finally:
        stack.close()

    # 3. probes on a fresh session over the same (index-warm) graph.
    service = CommunityService(pg)
    vertices = workload.vertices[-PROBE_QUERIES:]  # the pool's tail: never queried above
    if isinstance(workload, MixedRW):
        metrics.update(_write_metrics(traced, tracer, subscription_stats))
    else:
        gateway = CommunityGateway(service, port=0)
        try:
            with Tracer() as write_tracer:
                rounds, _ = _play(MixedRW(pg, seed), gateway, write_tracer,
                                  SAMPLE_OPS[MixedRW.name], traced=True)
            recorders.append(rounds)
            metrics.update(_write_metrics(rounds, write_tracer, gateway.subscriptions.stats()))
        finally:
            gateway.close()
    metrics.update(_server_probes(service, vertices))
    metrics.update(_api_probes(service, vertices))
    metrics.update(_core_probes(service, vertices))
    metrics.update(_index_ptree_graph_probes(service, vertices))
    metrics.update(_dynamic_probe(service, workload.edits[-200:]))
    metrics.update(_storage_probes(service, workload.edits[-200:], scratch))

    failures = [s.failure for rec in recorders for s in rec.samples if s.failure is not None]
    trace = tracer.to_json()
    trace.update(workload=name, seed=seed, scale=scale, sample_ops=ops)
    return TracedResult(
        metrics=metrics,
        attempted=sum(len(rec.samples) for rec in recorders),
        failed=len(failures),
        failures=failures,
        trace=trace,
    )
