"""Update throughput — incremental index maintenance vs rebuild-per-edit.

The mutation PR's acceptance benchmark: for each dataset, replay two
reproducible edit streams two ways

* **rebuild** — the no-maintenance strawman: every edit is followed by a
  full ``pg.index(rebuild=True)``, the only way a pre-mutation-API
  pipeline could avoid serving stale communities;
* **incremental** — the engine path: each edit goes through
  ``CommunityExplorer.apply_updates``, which patches it into the
  per-label CL-trees it touches as it lands (edits are applied one at a
  time).

The two streams are ``toggles`` (:func:`repro.bench.make_edit_stream`:
random vertex pairs toggled plus profile replacements, which at dataset
densities is nearly all insertions) and ``removals`` (built here: existing
edges removed and added back, plus profile replacements that only drop
labels), so the edits that take something away are measured too.

Asserts incremental maintenance is ≥ 5× faster per edit than rebuilding
on both streams, that the maintained index ends byte-equal to a fresh
build (``repro.bench.index_matches_fresh_build``), and records edits/sec
plus invalidation counts under ``results/update_throughput*.json``. The
incremental cost is also reported per edit kind, ungated.

Runs two ways, exactly like the engine-throughput benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_update_throughput.py --smoke
    PYTHONPATH=src python benchmarks/bench_update_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import random
import sys

import pytest

from repro.bench import (
    Table,
    make_edit_stream,
    measure_update_throughput,
    save_tables,
    smoke_mode,
)
from repro.engine.updates import GraphUpdate

#: Acceptance floor: incremental repair vs full rebuild after each edit.
MIN_SPEEDUP = 5.0

#: Edits replayed through the incremental path (the rebuild strawman times
#: only REBUILD_CAP of them — rebuilds dominate, a few suffice).
NUM_EDITS = 24
SMOKE_NUM_EDITS = 8
REBUILD_CAP = 3

#: Fraction of profile-replacement edits in the stream.
PROFILE_FRACTION = 0.2

#: Edit kinds the two streams emit (reported per kind).
OP_KINDS = ("add_edge", "remove_edge", "set_profile")


def num_edits() -> int:
    return SMOKE_NUM_EDITS if smoke_mode() else NUM_EDITS


def make_removal_stream(pg, count: int, seed: int = 7) -> list:
    """``count`` edits that take something away from ``pg``.

    An existing edge is removed and then added back (two edits), or a
    vertex's profile is replaced by a random half of its labels (closed
    over ancestors on apply, so it only ever loses labels).
    """
    rng = random.Random(seed)
    edges = sorted(pg.graph.edges(), key=repr)
    vertices = sorted((v for v in pg.vertices() if len(pg.labels(v)) > 1), key=repr)
    ops = []
    while len(ops) < count:
        if rng.random() < PROFILE_FRACTION:
            v = rng.choice(vertices)
            labels = sorted(pg.labels(v))
            kept = rng.sample(labels, len(labels) // 2)
            ops.append(GraphUpdate(op="set_profile", u=v, labels=sorted(kept)))
        else:
            u, v = rng.choice(edges)
            ops.append(GraphUpdate(op="remove_edge", u=u, v=v))
            ops.append(GraphUpdate(op="add_edge", u=u, v=v))
    return ops[:count]


def measure_updates(make_pg, dataset: str, seed: int = 7, count=None) -> dict:
    """Incremental vs rebuild stats for one dataset, per stream (see the
    module docstring)."""
    count = count or num_edits()
    streams = {
        "toggles": make_edit_stream(
            make_pg(), count, seed=seed, profile_fraction=PROFILE_FRACTION
        ),
        "removals": make_removal_stream(make_pg(), count, seed=seed),
    }
    return {
        f"{dataset} {kind}": dict(
            measure_update_throughput(
                make_pg, dataset, stream, rebuild_cap=REBUILD_CAP
            ).to_dict(),
            stream=kind,
        )
        for kind, stream in streams.items()
    }


def _render(payload: dict) -> Table:
    table = Table(
        "Update throughput — rebuild-per-edit vs incremental maintenance",
        ["dataset", "stream", "edits", "rebuild ms/e", "incr ms/e", "speedup",
         "edits/sec", "ok", *(f"{op} ms/e" for op in OP_KINDS)],
    )
    for row in payload.values():
        by_op = row["ms_per_edit_by_op"]
        table.add_row(
            row["dataset"],
            row["stream"],
            row["num_edits"],
            round(row["rebuild_ms_per_edit"], 2),
            round(row["incremental_ms_per_edit"], 3),
            round(row["speedup"], 1),
            round(row["edits_per_second"], 1),
            "yes" if row["consistent"] else "NO",
            *(round(by_op[op], 3) if op in by_op else "-" for op in OP_KINDS),
        )
    return table


@pytest.mark.smoke
def test_update_throughput():
    """Incremental maintenance must beat rebuild-per-edit by ≥ 5×."""
    # Fresh per-mode instances are required (the stream mutates them), so
    # this test loads its own datasets instead of the shared session
    # fixture, whose graphs other benchmarks keep querying.
    from conftest import BENCH_SCALES, bench_scale

    from repro.datasets import load_dataset

    payload = {}
    for name in ("acmdl", "flickr"):
        assert name in BENCH_SCALES
        payload.update(measure_updates(
            lambda name=name: load_dataset(name, scale=bench_scale(name)), name
        ))
    table = _render(payload)
    table.show()
    save_tables("update_throughput", [table], extra={"measurements": payload})

    for name, row in payload.items():
        assert row["consistent"], f"{name}: maintained index diverged from fresh build"
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{name}: incremental maintenance only {row['speedup']:.1f}x faster than "
            f"rebuild-per-edit (need >= {MIN_SPEEDUP}x)"
        )


def main(argv=None) -> int:
    """Standalone entry point (used by the CI benchmark-smoke job)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI fast path")
    parser.add_argument("--datasets", nargs="*", default=None,
                        help="dataset names (default: acmdl flickr)")
    parser.add_argument("--num-edits", type=int, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None,
                        help="results name (default update_throughput[_smoke])")
    args = parser.parse_args(argv)

    if args.smoke:
        import os

        os.environ["REPRO_BENCH_SMOKE"] = "1"

    from conftest import BENCH_SCALES, bench_scale

    from repro.datasets import load_dataset

    names = args.datasets or ["acmdl", "flickr"]
    unknown = [n for n in names if n not in BENCH_SCALES]
    if unknown:
        parser.error(f"unknown datasets {unknown}; choose from {sorted(BENCH_SCALES)}")

    payload = {}
    for name in names:
        payload.update(measure_updates(
            lambda name=name: load_dataset(name, scale=bench_scale(name)),
            name, seed=args.seed, count=args.num_edits,
        ))
    table = _render(payload)
    table.show()
    result_name = args.out or (
        "update_throughput_smoke" if smoke_mode() else "update_throughput"
    )
    path = save_tables(result_name, [table], extra={"measurements": payload})
    print(f"\nwrote {path}")

    broken = [n for n, row in payload.items() if not row["consistent"]]
    slow = [n for n, row in payload.items() if row["speedup"] < MIN_SPEEDUP]
    if broken:
        print(f"FAIL: maintained index diverged on {broken}", file=sys.stderr)
        return 1
    if slow:
        print(f"FAIL: speedup below {MIN_SPEEDUP}x on {slow}", file=sys.stderr)
        return 1
    print(f"OK: incremental maintenance >= {MIN_SPEEDUP}x faster on all datasets")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
