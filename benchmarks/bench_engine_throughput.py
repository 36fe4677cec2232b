"""Engine throughput — cold-index vs warm-index serving latency.

The engine PR's acceptance benchmark: for each bundled dataset, compare

* **cold** — the no-reuse strawman: every query rebuilds the CP-tree index
  from scratch (what repeated one-shot ``pcs()`` calls on fresh graphs do);
* **warm** — one :class:`~repro.engine.CommunityExplorer` serving the same
  workload as batches: the index is built once, results are LRU-cached and
  the workload is replayed ``REPEAT`` times (interactive re-querying).

Asserts warm-index batched serving is ≥ 5× faster per query than the cold
path, and records queries/sec plus cache hit rate under
``results/engine_throughput*.json``.

Runs two ways:

* under pytest (session fixtures, all bundled datasets)::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_throughput.py --smoke

* as a plain script — no pytest *invocation* or fixtures, though the
  module still imports pytest for its marker (the CI benchmark-smoke job
  runs this form)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import sys

import pytest

from repro.api import CommunityService
from repro.bench import (
    Table,
    Workload,
    make_workload,
    measure_cold_warm,
    run_service_throughput,
    run_throughput,
    save_tables,
    smoke_mode,
)
from repro.core.profiled_graph import ProfiledGraph
from repro.engine import CommunityExplorer

#: Acceptance floor: warm-index batched serving vs per-query index rebuild.
MIN_SPEEDUP = 5.0

#: Facade acceptance: routing a workload through CommunityService must
#: stay within 5% of bare ``explore_many``. One pass of the smoke workload
#: takes well under a millisecond, so a single pass measures timer and
#: scheduler jitter, not the facade; each side is therefore timed by
#: ``conftest.best_of`` (the best of at least 3 runs and at least 1 s of
#: runs, each after a garbage collection) over runs of
#: :data:`PASSES_PER_RUN` passes. Regressions that matter — an accidental
#: deep copy, a per-query index probe, O(n) middleware — slow every run,
#: the best one included.
MAX_FACADE_OVERHEAD = 0.05

#: Workload passes in one timed facade run. Each pass empties the
#: session's result cache first, so it serves what a fresh session
#: serves: one miss and ``REPEAT - 1`` hits per query. A run of one pass
#: would be shorter than the garbage collection before it.
PASSES_PER_RUN = 100

#: Queries timed on the cold path (index rebuild dominates; a few suffice).
COLD_QUERY_CAP = 3

#: Times the workload is replayed through the warm engine. Replays model
#: interactive re-querying; on datasets where one heavy query dwarfs the
#: index build (dblp at bench scale) the cache is what keeps the engine
#: fast, so the replay factor materially affects the measured speedup.
REPEAT = 4


def measure_engine(
    pg: ProfiledGraph,
    workload: Workload,
    method: str = "adv-P",
) -> dict:
    """Cold vs warm serving stats for one dataset (see module docstring).

    Thin wrapper over :func:`repro.bench.measure_cold_warm`, the one place
    the cold-vs-warm speedup is computed.
    """
    report = measure_cold_warm(
        pg,
        workload,
        method=method,
        cold_query_cap=COLD_QUERY_CAP,
        repeat_factor=REPEAT,
    )
    return {
        "dataset": workload.dataset,
        "method": method,
        "k": workload.k,
        **report.to_dict(),
        "queries_per_second": report.throughput.queries_per_second,
        "cache_hit_rate": report.throughput.cache_hit_rate,
    }


def measure_facade(
    pg: ProfiledGraph, workload: Workload, method: str = "adv-P"
) -> dict:
    """Service-vs-engine overhead for one workload, best pass against best pass.

    Replays the identical workload ``REPEAT`` times per pass through bare
    :meth:`CommunityExplorer.explore_many` and through
    :meth:`repro.api.CommunityService.batch`, each over its own warmed
    session (see :data:`MAX_FACADE_OVERHEAD` for the timing).
    """
    from conftest import best_of

    explorer = CommunityExplorer(pg)
    explorer.warm()
    service = CommunityService(pg)
    service.warm()

    def passes(session, replay) -> float:
        def run() -> None:
            for _ in range(PASSES_PER_RUN):
                session.clear_cache()
                replay(session, workload, method=method, repeat_factor=REPEAT)

        return best_of(run) / (PASSES_PER_RUN * len(workload.queries) * REPEAT)

    engine_s = passes(explorer, run_throughput)
    service_s = passes(service, run_service_throughput)
    overhead = (service_s - engine_s) / engine_s
    return {
        "dataset": workload.dataset,
        "method": method,
        "k": workload.k,
        "engine_ms_per_query": engine_s * 1000.0,
        "service_ms_per_query": service_s * 1000.0,
        "overhead_fraction": overhead,
        "passed": overhead <= MAX_FACADE_OVERHEAD,
    }


def _render(payload: dict) -> Table:
    table = Table(
        "Engine throughput — cold (rebuild/query) vs warm (index + cache reuse)",
        ["dataset", "cold ms/q", "warm ms/q", "speedup", "q/sec", "hit rate"],
    )
    for row in payload.values():
        table.add_row(
            row["dataset"],
            round(row["cold_ms_per_query"], 2),
            round(row["warm_ms_per_query"], 3),
            round(row["speedup"], 1),
            round(row["queries_per_second"], 1),
            f"{row['cache_hit_rate']:.0%}",
        )
    return table


@pytest.mark.smoke
def test_engine_throughput(benchmark, datasets, workloads):
    """Warm-index batched serving must beat cold rebuilds by ≥ 5×."""
    payload = {}
    for name, pg in datasets.items():
        payload[name] = measure_engine(pg, workloads[name])
    table = _render(payload)
    table.show()
    save_tables("engine_throughput", [table], extra={"measurements": payload})

    for name, row in payload.items():
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{name}: warm engine only {row['speedup']:.1f}x faster than "
            f"per-query index rebuild (need >= {MIN_SPEEDUP}x)"
        )

    explorer = CommunityExplorer(datasets["acmdl"])
    q = workloads["acmdl"].queries[0]
    explorer.warm()
    benchmark(lambda: explorer.explore(q, k=6))


@pytest.mark.smoke
def test_facade_overhead(datasets, workloads):
    """CommunityService must not slow serving beyond MAX_FACADE_OVERHEAD."""
    name = "acmdl"
    facade = measure_facade(datasets[name], workloads[name])
    save_tables(
        "facade_overhead", [_render_facade({name: facade})], extra={name: facade}
    )
    assert facade["passed"], (
        f"{name}: service {facade['service_ms_per_query']:.3f} ms/query vs "
        f"engine {facade['engine_ms_per_query']:.3f} ms/query — overhead "
        f"{facade['overhead_fraction']:+.1%} exceeds {MAX_FACADE_OVERHEAD:.0%}"
    )


def _render_facade(payload: dict) -> Table:
    table = Table(
        "Facade overhead — CommunityService vs bare CommunityExplorer",
        ["dataset", "engine ms/q", "service ms/q", "overhead", "ok"],
    )
    for name, row in payload.items():
        table.add_row(
            name,
            round(row["engine_ms_per_query"], 3),
            round(row["service_ms_per_query"], 3),
            f"{row['overhead_fraction']:+.1%}",
            "yes" if row["passed"] else "NO",
        )
    return table


def main(argv=None) -> int:
    """Standalone entry point (used by the CI benchmark-smoke job)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI fast path")
    parser.add_argument("--datasets", nargs="*", default=None,
                        help="dataset names (default: acmdl flickr)")
    parser.add_argument("--num-queries", type=int, default=None)
    parser.add_argument("--k", type=int, default=6)
    parser.add_argument("--method", default="adv-P")
    parser.add_argument("--out", default=None,
                        help="results name (default engine_throughput[_smoke])")
    args = parser.parse_args(argv)

    if args.smoke:
        import os

        os.environ["REPRO_BENCH_SMOKE"] = "1"

    # Late import so `--help` stays instant; the script's own directory is
    # on sys.path when executed directly, so the bench conftest resolves.
    from conftest import BENCH_SCALES, bench_queries, bench_scale

    from repro.datasets import load_dataset

    names = args.datasets or ["acmdl", "flickr"]
    unknown = [n for n in names if n not in BENCH_SCALES]
    if unknown:
        parser.error(f"unknown datasets {unknown}; choose from {sorted(BENCH_SCALES)}")
    num_queries = args.num_queries or bench_queries()

    payload = {}
    facade_payload = {}
    for name in names:
        pg = load_dataset(name, scale=bench_scale(name))
        workload = make_workload(pg, name, num_queries=num_queries, k=args.k, seed=7)
        payload[name] = measure_engine(pg, workload, method=args.method)
        if name == names[0]:
            # One workload is enough to catch facade regressions; the
            # overhead is dataset-independent (per-query fixed cost).
            facade_payload[name] = measure_facade(pg, workload, method=args.method)
    table = _render(payload)
    table.show()
    facade_table = _render_facade(facade_payload)
    facade_table.show()
    result_name = args.out or (
        "engine_throughput_smoke" if smoke_mode() else "engine_throughput"
    )
    path = save_tables(
        result_name,
        [table, facade_table],
        extra={"measurements": payload, "facade_overhead": facade_payload},
    )
    print(f"\nwrote {path}")

    failures = [n for n, row in payload.items() if row["speedup"] < MIN_SPEEDUP]
    if failures:
        print(f"FAIL: speedup below {MIN_SPEEDUP}x on {failures}", file=sys.stderr)
        return 1
    facade_failures = [n for n, row in facade_payload.items() if not row["passed"]]
    if facade_failures:
        print(
            f"FAIL: CommunityService facade overhead above "
            f"{MAX_FACADE_OVERHEAD:.0%} on {facade_failures}",
            file=sys.stderr,
        )
        return 1
    print(f"OK: warm-index serving >= {MIN_SPEEDUP}x faster on all datasets; "
          f"service facade within {MAX_FACADE_OVERHEAD:.0%} of the bare engine")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
