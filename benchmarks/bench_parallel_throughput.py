"""Process-parallel serving — sharded warm-batch speedup vs in-process.

The parallel PR's acceptance benchmark: on the synthetic dataset, serve one
warm batch of cache-cold queries through a
:class:`~repro.parallel.ParallelExplorer` at 1 worker (the in-process
baseline — the pool never starts) and at :data:`WORKERS` workers (sharded
across a process fleet), and assert

* **correctness** — the parallel results are identical to the sequential
  ones (community-by-community, member sets and subtrees), always;
* **speedup** — the 4-worker batch is at least :data:`MIN_SPEEDUP`× faster
  than the 1-worker batch, *when the host actually has cores to run it*
  (at least :data:`MIN_CORES_FOR_SPEEDUP` usable CPUs, one per worker —
  with fewer cores than workers the fleet time-slices and 2× is at or
  above the physical ceiling, so there the speedup gate is skipped and
  reported as such, while the correctness half still runs).

"Warm batch" means every one-time cost is paid before the clock counts:
the parent index is built, and the best of :data:`ROUNDS` rounds is taken
(the fleet boots from the parent's graph + index image at its first
shard, so round one pays the bootstrap and later rounds are the steady
state of a loaded serving session, where only per-batch work differs
between the modes). Each round serves the workload with the result cache
cleared.

Two session costs are reported beside the gate, per width and ungated
(:func:`measure_session_costs`): ``warm_seconds`` — ``warm()`` on a cold
session, i.e. the one index build — and
``first_indexed_batch_after_update_ms`` — the first
:data:`INDEXED_BATCH` × ``adv-P`` batch after a :data:`UPDATE_EDITS`-edit
update, which at width > 1 pays the fleet restart and re-ship.

Runs two ways, like the other acceptance benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_throughput.py --smoke
    PYTHONPATH=src python benchmarks/bench_parallel_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time

import pytest

from repro.bench import (
    Table,
    make_edit_stream,
    make_workload,
    measure_parallel_scaling,
    save_tables,
    smoke_mode,
)
from repro.core.community import as_vertex_subtree_map
from repro.engine import CommunityExplorer
from repro.parallel import ParallelExplorer, recommended_workers
from repro.storage import load_snapshot_bytes, snapshot_bytes

#: Acceptance floor: sharded warm-batch serving vs the in-process baseline.
MIN_SPEEDUP = 2.0

#: Fleet width the acceptance criterion is stated at.
WORKERS = 4

#: Usable CPUs below which the speedup gate is skipped (correctness still
#: asserted). With fewer cores than workers the fleet time-slices: on 2
#: cores 2x is the physical ceiling, not a floor a healthy build clears.
MIN_CORES_FOR_SPEEDUP = WORKERS

#: Batch size floor — the generic smoke workload cap (2 queries) is below
#: the parallel dispatch threshold and could never show sharding.
BATCH_SIZE = 16

#: ``basic`` is the heaviest per-query compute and index-free: the
#: measurement isolates shard execution rather than worker index builds.
METHOD = "basic"

ROUNDS = 2

#: Shape of the ungated session-cost rows: an indexed batch past the
#: dispatch threshold, and one small update batch before it.
INDEXED_BATCH = 12
UPDATE_EDITS = 4


def measure_session_costs(pg, workload, width: int) -> dict:
    """Cold ``warm()`` and the first indexed batch after an update.

    Runs on a private index-free copy of ``pg`` (one trip through the
    snapshot image), so every width pays — and reports — a whole session
    from cold and the shared fixture graph is never mutated. The answers
    after the update are compared against an inline engine on the same
    mutated copy.
    """
    copy = load_snapshot_bytes(snapshot_bytes(pg, include_index=False))
    specs = [(q, workload.k, "adv-P") for q in workload.queries[:INDEXED_BATCH]]
    with ParallelExplorer(copy, processes=width) as explorer:
        warm_seconds = explorer.warm()
        explorer.explore_many(specs)  # the fleet (if any) is up and indexed
        explorer.apply_updates(
            make_edit_stream(copy, UPDATE_EDITS, seed=3, profile_fraction=0.0)
        )
        start = time.perf_counter()
        results = explorer.explore_many(specs)
        elapsed = time.perf_counter() - start
    expected = CommunityExplorer(copy).explore_many(specs)
    return {
        "warm_seconds": warm_seconds,
        "first_indexed_batch_after_update_ms": elapsed * 1000.0,
        "after_update_equal": [as_vertex_subtree_map(r) for r in results]
        == [as_vertex_subtree_map(r) for r in expected],
    }


def measure(pg, workload, workers: int = WORKERS) -> dict:
    report = measure_parallel_scaling(
        pg, workload, method=METHOD, worker_counts=(1, workers), rounds=ROUNDS
    )
    for width, row in report["measurements"].items():
        # warm_seconds is re-measured on a cold copy: on the shared graph
        # only the first width ever builds.
        row.update(measure_session_costs(pg, workload, width))
        report["all_equal"] = report["all_equal"] and row["after_update_equal"]
    report["cores"] = recommended_workers()
    report["workers"] = workers
    report["speedup"] = report["speedups"][workers]
    report["speedup_gated"] = report["cores"] >= MIN_CORES_FOR_SPEEDUP
    return report


def _render(payload: dict) -> Table:
    table = Table(
        "Parallel throughput — sharded batch (4 workers) vs in-process (1)",
        ["dataset", "batch", "1w ms/q", f"{WORKERS}w ms/q", "speedup", "equal", "cores",
         "warm s (1w/Nw)", "indexed batch after update ms (1w/Nw)"],
    )
    for row in payload.values():
        m1 = row["measurements"][1]
        mn = row["measurements"][row["workers"]]
        n = row["batch_size"]
        table.add_row(
            row["dataset"],
            n,
            round(m1["elapsed_seconds"] / n * 1000.0, 2),
            round(mn["elapsed_seconds"] / n * 1000.0, 2),
            round(row["speedup"], 2),
            "yes" if row["all_equal"] else "NO",
            row["cores"],
            f"{m1['warm_seconds']:.2f}/{mn['warm_seconds']:.2f}",
            f"{m1['first_indexed_batch_after_update_ms']:.0f}/"
            f"{mn['first_indexed_batch_after_update_ms']:.0f}",
        )
    return table


def _check(name: str, row: dict) -> list:
    """Correctness always; speedup only where cores make it physical."""
    failures = []
    if not row["all_equal"]:
        failures.append(f"{name}: parallel results differ from sequential")
    if row["speedup_gated"] and row["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"{name}: {row['workers']}-worker warm batch only "
            f"{row['speedup']:.2f}x the 1-worker baseline "
            f"(need >= {MIN_SPEEDUP}x on {row['cores']} cores)"
        )
    return failures


@pytest.mark.smoke
def test_parallel_throughput(datasets):
    """Sharded warm batches: identical results, >=2x at 4 workers (gated)."""
    pg = datasets["acmdl"]
    workload = make_workload(pg, "acmdl", num_queries=BATCH_SIZE, k=6, seed=7)
    payload = {"acmdl": measure(pg, workload)}
    table = _render(payload)
    table.show()
    save_tables("parallel_throughput", [table], extra={"measurements": payload})

    failures = _check("acmdl", payload["acmdl"])
    assert not failures, "; ".join(failures)
    if not payload["acmdl"]["speedup_gated"]:
        pytest.skip(
            f"speedup gate skipped: host has {payload['acmdl']['cores']} usable "
            f"core(s), need >= {MIN_CORES_FOR_SPEEDUP} (results-equal check passed)"
        )


def main(argv=None) -> int:
    """Standalone entry point (used by the CI benchmark-smoke job)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI fast path")
    parser.add_argument("--dataset", default="acmdl")
    parser.add_argument("--workers", type=int, default=WORKERS)
    parser.add_argument("--num-queries", type=int, default=None)
    parser.add_argument("--k", type=int, default=6)
    parser.add_argument("--out", default=None,
                        help="results name (default parallel_throughput[_smoke])")
    args = parser.parse_args(argv)

    if args.smoke:
        import os

        os.environ["REPRO_BENCH_SMOKE"] = "1"

    from conftest import BENCH_SCALES, bench_scale

    from repro.datasets import load_dataset

    if args.dataset not in BENCH_SCALES:
        parser.error(f"unknown dataset {args.dataset!r}; choose from {sorted(BENCH_SCALES)}")
    pg = load_dataset(args.dataset, scale=bench_scale(args.dataset))
    workload = make_workload(
        pg, args.dataset, num_queries=args.num_queries or BATCH_SIZE, k=args.k, seed=7
    )
    payload = {args.dataset: measure(pg, workload, workers=args.workers)}
    table = _render(payload)
    table.show()
    result_name = args.out or (
        "parallel_throughput_smoke" if smoke_mode() else "parallel_throughput"
    )
    path = save_tables(result_name, [table], extra={"measurements": payload})
    print(f"\nwrote {path}")

    row = payload[args.dataset]
    failures = _check(args.dataset, row)
    if not row["speedup_gated"]:
        print(
            f"NOTE: speedup gate skipped ({row['cores']} usable core(s) < "
            f"{MIN_CORES_FOR_SPEEDUP}); results-equal check "
            f"{'passed' if row['all_equal'] else 'FAILED'}"
        )
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
