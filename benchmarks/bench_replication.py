"""Replicated read throughput — 1 writer + 3 replicas vs a single gateway.

The replication PR's acceptance benchmark. The same read-only workload
(distinct vertices, each queried exactly once, so per-backend result
caches never answer and every request is real engine compute) is driven
by concurrent clients against two real deployments:

* **single** — one standalone ``repro serve`` subprocess, the pre-tier
  topology: every query competes for that process's GIL;
* **replicated** — a :class:`~repro.replication.cluster.LocalCluster`
  (one writer, :data:`REPLICAS` read replicas, one router, each
  its own process), with reads fanned across the replicas.

Asserted:

* **correctness** — per-vertex envelopes are identical between the two
  deployments (modulo timings), always. Replicas answer from a shipped
  snapshot + streamed WAL, so equality here is the end-to-end proof the
  replication path preserves answers byte for byte;
* **throughput** — the replicated tier serves reads at least
  :data:`MIN_SPEEDUP`× the single gateway. The win *is* process
  parallelism, so — like ``bench_parallel_throughput`` — the gate only
  applies on hosts with at least :data:`MIN_CORES_FOR_SPEEDUP` usable
  cores; below that it is loudly skipped while correctness still gates.

Reported: queries/sec and wall seconds per deployment, the speedup, and
the router's per-replica request spread.

Runs two ways, like the other acceptance benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_replication.py --smoke
    PYTHONPATH=src python benchmarks/bench_replication.py --smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.bench import Table, make_workload, save_tables, smoke_mode
from repro.parallel import recommended_workers
from repro.replication import ClusterProcess, LocalCluster
from repro.server import ServerClient

#: Acceptance floor: replicated read throughput over the single gateway.
MIN_SPEEDUP = 1.5

#: Read replicas behind the router (the acceptance criterion's shape).
REPLICAS = 3

#: Usable CPUs below which the speedup gate is skipped (correctness still
#: asserted): the replicas must actually run in parallel to win.
MIN_CORES_FOR_SPEEDUP = 4

#: Concurrent client threads driving each deployment.
CLIENTS = 8

METHOD = "basic"
K = 6

#: ``load_dataset``'s default generation seed, pinned explicitly so the
#: driver's workload graph and every subprocess generate identically.
DATASET_SEED = 20190116

ROOT = Path(__file__).resolve().parents[1]


def distinct_queries() -> int:
    return 24 if smoke_mode() else 48


def _single_gateway(dataset: str, scale: float, seed: int) -> ClusterProcess:
    """One standalone serving subprocess — the baseline topology."""
    argv = [
        sys.executable, "-m", "repro", "serve", "--role", "standalone",
        "--host", "127.0.0.1", "--port", "0", "--no-coalesce",
        "--dataset", dataset, "--scale", str(scale), "--seed", str(seed),
    ]
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src if not env.get("PYTHONPATH")
        else os.pathsep.join([src, env["PYTHONPATH"]])
    )
    return ClusterProcess("single", argv, env=env)


def _drive(url: str, vertices, clients: int):
    """Drain the workload through ``clients`` threads; returns
    ``(wall_seconds, envelopes-by-vertex)``."""
    host, port = url.removeprefix("http://").rsplit(":", 1)
    pending = list(vertices)
    envelopes = {}
    errors = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def worker() -> None:
        try:
            with ServerClient(host, int(port), retries=2) as client:
                barrier.wait()
                while True:
                    with lock:
                        if not pending:
                            return
                        vertex = pending.pop()
                    payload = client.query_raw(
                        {"vertex": vertex, "k": K, "method": METHOD}
                    )
                    with lock:
                        envelopes[vertex] = payload
        except Exception as exc:  # noqa: BLE001 - surfaced below
            with lock:
                errors.append(exc)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:  # pragma: no cover
                pass

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for t in threads:
        t.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a worker failed during connect; its error is in `errors`
    wall_start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_start
    if errors:
        root = [e for e in errors if not isinstance(e, threading.BrokenBarrierError)]
        raise (root or errors)[0]
    return wall, envelopes


def _strip_timings(envelope: dict) -> dict:
    """Drop fields legally differing between deployments: timings, and
    work/cache provenance (``num_verifications`` counts index traversal
    steps, which depend on whether the index was built cold or restored
    from a shipped snapshot — the snapshot contract is structural
    equality, not traversal order; see ``bench_snapshot_boot``). Every
    answer field — communities, cohesion, matched, plan,
    ``graph_version`` — stays compared."""
    cleaned = dict(envelope)
    for key in ("elapsed_ms", "num_verifications", "cache_hit"):
        cleaned.pop(key, None)
    return cleaned


def measure(dataset: str, scale: float, seed: int, vertices) -> dict:
    """Drive both deployments over the same workload; compare and time."""
    single = _single_gateway(dataset, scale, seed)
    try:
        single_url = single.wait_url(120.0)
        single_wall, single_envelopes = _drive(single_url, vertices, CLIENTS)
    finally:
        single.terminate()

    with LocalCluster(
        dataset=dataset, scale=scale, seed=seed, replicas=REPLICAS
    ) as cluster:
        with cluster.client() as probe:
            probe.healthz()  # router is answering before the clock starts
        routed_wall, routed_envelopes = _drive(
            cluster.router_url, vertices, CLIENTS
        )
        with cluster.client() as probe:
            spread = {
                member["url"]: member["requests"]
                for member in probe.stats()["replicas"]
            }

    mismatched = [
        v for v in vertices
        if _strip_timings(single_envelopes[v]) != _strip_timings(routed_envelopes[v])
    ]
    total = len(vertices)
    single_qps = total / single_wall if single_wall else 0.0
    routed_qps = total / routed_wall if routed_wall else 0.0
    cores = recommended_workers()
    return {
        "dataset": dataset,
        "queries": total,
        "clients": CLIENTS,
        "replicas": REPLICAS,
        "method": METHOD,
        "cores": cores,
        "speedup_gated": cores >= MIN_CORES_FOR_SPEEDUP,
        "single": {"wall_seconds": single_wall, "throughput_qps": single_qps},
        "replicated": {"wall_seconds": routed_wall, "throughput_qps": routed_qps},
        "speedup": routed_qps / single_qps if single_qps else 0.0,
        "replica_request_spread": spread,
        "all_equal": not mismatched,
        "mismatched_vertices": [repr(v) for v in mismatched],
    }


def _render(report: dict) -> Table:
    table = Table(
        "Replicated serving — router over "
        f"{report['replicas']} replicas vs a single gateway "
        f"({report['clients']} concurrent clients)",
        ["dataset", "deployment", "queries", "wall s", "qps"],
    )
    for label in ("single", "replicated"):
        row = report[label]
        table.add_row(
            report["dataset"],
            label,
            report["queries"],
            round(row["wall_seconds"], 2),
            round(row["throughput_qps"], 1),
        )
    return table


def _check(report: dict) -> list:
    """Correctness always; speedup only where cores make it physical."""
    failures = []
    if not report["all_equal"]:
        failures.append(
            f"{report['dataset']}: replicated answers differ from the single "
            f"gateway for {report['mismatched_vertices']}"
        )
    if report["speedup_gated"] and report["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"{report['dataset']}: replicated tier only {report['speedup']:.2f}x "
            f"the single gateway (need >= {MIN_SPEEDUP}x on {report['cores']} "
            f"cores; spread {report['replica_request_spread']})"
        )
    return failures


@pytest.mark.smoke
def test_replicated_read_throughput():
    """Replicated reads: identical answers always; >=1.5x where cores allow."""
    from conftest import bench_scale

    from repro.datasets import load_dataset

    scale = bench_scale("acmdl")
    pg = load_dataset("acmdl", scale=scale)
    vertices = make_workload(
        pg, "acmdl", num_queries=distinct_queries(), k=K, seed=11
    ).queries
    report = measure("acmdl", scale, DATASET_SEED, list(vertices))
    table = _render(report)
    table.show()
    save_tables(
        "replication_throughput" + ("_smoke" if smoke_mode() else ""),
        [table],
        extra={"measurements": {"acmdl": report}},
    )
    failures = _check(report)
    assert not failures, "; ".join(failures)
    if not report["speedup_gated"]:
        pytest.skip(
            f"speedup gate skipped: host has {report['cores']} usable core(s) "
            f"< {MIN_CORES_FOR_SPEEDUP}; correctness asserted"
        )


def main(argv=None) -> int:
    """Standalone entry point (used by the CI benchmark-smoke job)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI fast path")
    parser.add_argument("--dataset", default="acmdl")
    parser.add_argument("--queries", type=int, default=None,
                        help="distinct vertices (default 48; smoke 16)")
    parser.add_argument("--out", default=None,
                        help="results name (default replication_throughput[_smoke])")
    args = parser.parse_args(argv)

    if args.smoke:
        os.environ["REPRO_BENCH_SMOKE"] = "1"

    from conftest import BENCH_SCALES, bench_scale

    from repro.datasets import load_dataset

    if args.dataset not in BENCH_SCALES:
        parser.error(
            f"unknown dataset {args.dataset!r}; choose from {sorted(BENCH_SCALES)}"
        )
    scale = bench_scale(args.dataset)
    pg = load_dataset(args.dataset, scale=scale)
    vertices = make_workload(
        pg, args.dataset, num_queries=args.queries or distinct_queries(),
        k=K, seed=11,
    ).queries
    report = measure(args.dataset, scale, DATASET_SEED, list(vertices))
    table = _render(report)
    table.show()
    result_name = args.out or (
        "replication_throughput_smoke" if smoke_mode() else "replication_throughput"
    )
    path = save_tables(result_name, [table], extra={"measurements": {args.dataset: report}})
    print(f"\nwrote {path}")

    failures = _check(report)
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    note = ""
    if not report["speedup_gated"]:
        note = (f" — NOTE: speedup gate skipped ({report['cores']} usable "
                f"core(s) < {MIN_CORES_FOR_SPEEDUP})")
    print(f"OK: replicated {report['speedup']:.2f}x the single gateway{note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
