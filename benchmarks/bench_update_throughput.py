"""Update throughput — incremental index maintenance vs rebuild-per-edit.

The mutation PR's acceptance benchmark: for each dataset, replay one
reproducible edit stream (edge toggles + profile replacements) two ways

* **rebuild** — the no-maintenance strawman: every edit is followed by a
  full ``pg.index(rebuild=True)``, the only way a pre-mutation-API
  pipeline could avoid serving stale communities;
* **incremental** — the engine path: each edit goes through
  ``CommunityExplorer.apply_updates``, which journals the damage and
  patches insertions in place and rebuilds only the per-label CL-trees a
  removal touched (edits are applied one at a time — the journal's worst
  case; batching only improves it).

Asserts incremental maintenance is ≥ 5× faster per edit than rebuilding,
that the maintained index ends byte-equal to a fresh build
(``repro.bench.index_matches_fresh_build``), and records edits/sec plus
invalidation counts under ``results/update_throughput*.json``. The
incremental cost is also reported per edit kind, ungated: ``add_edge`` is
patched into the CL-trees in place, ``remove_edge`` and a ``set_profile``
that drops labels still rebuild the labels they touch.

Runs two ways, exactly like the engine-throughput benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_update_throughput.py --smoke
    PYTHONPATH=src python benchmarks/bench_update_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import sys

import pytest

from repro.bench import (
    Table,
    make_edit_stream,
    measure_update_throughput,
    save_tables,
    smoke_mode,
)

#: Acceptance floor: incremental repair vs full rebuild after each edit.
MIN_SPEEDUP = 5.0

#: Edits replayed through the incremental path (the rebuild strawman times
#: only REBUILD_CAP of them — rebuilds dominate, a few suffice).
NUM_EDITS = 24
SMOKE_NUM_EDITS = 8
REBUILD_CAP = 3

#: Fraction of profile-replacement edits in the stream.
PROFILE_FRACTION = 0.2

#: Edit kinds :func:`repro.bench.make_edit_stream` emits (reported per kind).
OP_KINDS = ("add_edge", "remove_edge", "set_profile")


def num_edits() -> int:
    return SMOKE_NUM_EDITS if smoke_mode() else NUM_EDITS


def measure_updates(make_pg, dataset: str, seed: int = 7) -> dict:
    """Incremental vs rebuild stats for one dataset (see module docstring)."""
    stream = make_edit_stream(
        make_pg(), num_edits(), seed=seed, profile_fraction=PROFILE_FRACTION
    )
    report = measure_update_throughput(
        make_pg, dataset, stream, rebuild_cap=REBUILD_CAP
    )
    return report.to_dict()


def _render(payload: dict) -> Table:
    table = Table(
        "Update throughput — rebuild-per-edit vs incremental maintenance",
        ["dataset", "edits", "rebuild ms/e", "incr ms/e", "speedup", "edits/sec", "ok",
         *(f"{op} ms/e" for op in OP_KINDS)],
    )
    for row in payload.values():
        by_op = row["ms_per_edit_by_op"]
        table.add_row(
            row["dataset"],
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
        payload[name] = measure_updates(
            lambda name=name: load_dataset(name, scale=bench_scale(name)), name
        )
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
        def make_pg(name=name):
            return load_dataset(name, scale=bench_scale(name))

        stream = make_edit_stream(
            make_pg(),
            args.num_edits or num_edits(),
            seed=args.seed,
            profile_fraction=PROFILE_FRACTION,
        )
        payload[name] = measure_update_throughput(
            make_pg, name, stream, rebuild_cap=REBUILD_CAP
        ).to_dict()
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
