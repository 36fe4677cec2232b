"""Snapshot boot — warm restore vs cold graph + index construction.

The persistence PR's acceptance benchmark: booting a query-ready serving
graph from a :mod:`repro.storage` snapshot (one ``load_snapshot`` call —
decode topology, labels, taxonomy *and* adopt the serialised CP-tree)
must be ≥ 5× faster than the cold path the server otherwise takes
(regenerate/load the dataset, validate the profiled graph, peel every
per-label CL-tree from scratch).

Both paths end in the same place — identical version, topology and index
label set — which the benchmark asserts before it trusts the timings.
Records seconds per mode, the speedup and the snapshot size under
``results/snapshot_boot*.json``.

Runs two ways, exactly like the engine-throughput benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_snapshot_boot.py --smoke
    PYTHONPATH=src python benchmarks/bench_snapshot_boot.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import pytest

from repro.bench import Table, save_tables, smoke_mode
from repro.storage import load_snapshot, save_snapshot

#: Acceptance floor: snapshot load vs cold graph + index build.
MIN_BOOT_SPEEDUP = 5.0


def measure_boot(name: str, scale: float) -> dict:
    """Cold-build vs snapshot-load timings for one dataset.

    Each mode is timed by ``conftest.best_of`` (at smoke scale one load
    takes ~0.02 s).
    """
    from conftest import best_of

    from repro.datasets import load_dataset

    def cold_boot():
        pg = load_dataset(name, scale=scale)
        pg.index()
        return pg

    cold_seconds = best_of(cold_boot)
    reference = cold_boot()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshot.bin"
        save_snapshot(reference, path)
        snapshot_bytes = path.stat().st_size
        load_seconds = best_of(lambda: load_snapshot(path))
        loaded = load_snapshot(path)

    # Equivalence first, timings second: a snapshot that boots into a
    # different graph would make the speedup meaningless.
    assert loaded.version == reference.version
    assert loaded.graph.vertex_set() == reference.graph.vertex_set()
    assert loaded.num_edges == reference.num_edges
    assert set(loaded.index().labels()) == set(reference.index().labels())

    return {
        "dataset": name,
        "scale": scale,
        "num_vertices": reference.num_vertices,
        "num_edges": reference.num_edges,
        "cold_seconds": cold_seconds,
        "load_seconds": load_seconds,
        "speedup": cold_seconds / load_seconds if load_seconds else float("inf"),
        "snapshot_bytes": snapshot_bytes,
    }


def _render(payload: dict) -> Table:
    table = Table(
        "Snapshot boot — cold graph+index build vs load_snapshot",
        ["dataset", "n", "m", "cold s", "load s", "speedup", "snapshot KiB"],
    )
    for row in payload.values():
        table.add_row(
            row["dataset"],
            row["num_vertices"],
            row["num_edges"],
            round(row["cold_seconds"], 3),
            round(row["load_seconds"], 4),
            round(row["speedup"], 1),
            round(row["snapshot_bytes"] / 1024, 1),
        )
    return table


@pytest.mark.smoke
def test_snapshot_boot_speedup():
    """Snapshot load must beat the cold build by ≥ 5× on acmdl."""
    from conftest import BENCH_SCALES, bench_scale

    payload = {}
    for name in ("acmdl",):
        assert name in BENCH_SCALES
        payload[name] = measure_boot(name, bench_scale(name))
    table = _render(payload)
    table.show()
    save_tables("snapshot_boot", [table], extra={"measurements": payload})

    for name, row in payload.items():
        assert row["speedup"] >= MIN_BOOT_SPEEDUP, (
            f"{name}: snapshot load only {row['speedup']:.1f}x faster than a "
            f"cold graph+index build (need >= {MIN_BOOT_SPEEDUP}x)"
        )


def main(argv=None) -> int:
    """Standalone entry point (used by the CI benchmark-smoke job)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI fast path")
    parser.add_argument("--datasets", nargs="*", default=None,
                        help="dataset names (default: acmdl)")
    parser.add_argument("--out", default=None,
                        help="results name (default snapshot_boot[_smoke])")
    args = parser.parse_args(argv)

    if args.smoke:
        import os

        os.environ["REPRO_BENCH_SMOKE"] = "1"

    from conftest import BENCH_SCALES, bench_scale

    names = args.datasets or ["acmdl"]
    unknown = [n for n in names if n not in BENCH_SCALES]
    if unknown:
        parser.error(f"unknown datasets {unknown}; choose from {sorted(BENCH_SCALES)}")

    payload = {name: measure_boot(name, bench_scale(name)) for name in names}
    table = _render(payload)
    table.show()
    result_name = args.out or (
        "snapshot_boot_smoke" if smoke_mode() else "snapshot_boot"
    )
    path = save_tables(result_name, [table], extra={"measurements": payload})
    print(f"\nwrote {path}")

    slow = [n for n, row in payload.items() if row["speedup"] < MIN_BOOT_SPEEDUP]
    if slow:
        print(f"FAIL: boot speedup below {MIN_BOOT_SPEEDUP}x on {slow}",
              file=sys.stderr)
        return 1
    print(f"OK: snapshot boot >= {MIN_BOOT_SPEEDUP}x faster on all datasets")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
