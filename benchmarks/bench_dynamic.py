"""Extension benchmark — dynamic maintenance versus rebuilding.

Not a paper figure: quantifies the dynamic layer (DESIGN.md S-inventory,
docs/architecture.md). Two comparisons on the ACMDL analogue:

* incremental core maintenance per edge edit versus full core
  decomposition per edit;
* incrementally repaired CP-tree (only dirty labels rebuilt, through
  ``CommunityExplorer.apply_updates``) versus full index rebuild, over a
  batch of edits.

Expected shape: per-edit incremental cores win by orders of magnitude;
incremental repair wins whenever the edit batch touches a small fraction of
labels.
"""

import random
import time

from repro.bench import Table, save_tables
from repro.core import pcs
from repro.datasets import load_dataset
from repro.dynamic import DynamicCoreIndex
from repro.engine import CommunityExplorer
from repro.graph.core import core_numbers

from conftest import DEFAULT_K, bench_scale

EDITS = 40


def test_dynamic_maintenance_vs_rebuild(benchmark):
    pg = load_dataset("acmdl", scale=bench_scale("acmdl"), seed=3)
    rng = random.Random(9)
    vertices = sorted(pg.vertices())
    edits = []
    probe = pg.graph.copy()
    for _ in range(EDITS):
        u, v = rng.sample(vertices, 2)
        if probe.has_edge(u, v):
            edits.append(("remove", u, v))
            probe.remove_edge(u, v)
        else:
            edits.append(("insert", u, v))
            probe.add_edge(u, v)

    # --- incremental cores vs full decomposition per edit
    graph = pg.graph.copy()
    index = DynamicCoreIndex(graph)
    start = time.perf_counter()
    for op, u, v in edits:
        if op == "insert":
            index.insert(u, v)
        else:
            index.remove(u, v)
    incremental_s = time.perf_counter() - start
    assert index.verify()

    graph2 = pg.graph.copy()
    start = time.perf_counter()
    for op, u, v in edits:
        if op == "insert":
            graph2.add_edge(u, v)
        else:
            graph2.remove_edge(u, v)
        core_numbers(graph2)
    recompute_s = time.perf_counter() - start

    # --- incremental CP-tree repair vs full rebuild over the batch
    explorer = CommunityExplorer(
        load_dataset("acmdl", scale=bench_scale("acmdl"), seed=3)
    )
    explorer.warm()
    receipt = explorer.apply_updates(
        ("add_edge" if op == "insert" else "remove_edge", u, v) for op, u, v in edits
    )
    dirty = receipt.repaired_labels
    repair_s = receipt.seconds
    start = time.perf_counter()
    explorer.pg.index(rebuild=True)
    rebuild_s = time.perf_counter() - start

    table = Table(
        f"Dynamic maintenance over {EDITS} edits (acmdl analogue)",
        ["strategy", "seconds", "notes"],
    )
    table.add_row("incremental cores", round(incremental_s, 4), "per-edit ±1 regions")
    table.add_row("recompute cores/edit", round(recompute_s, 4), "O(m) each")
    table.add_row("incremental CP-tree repair", round(repair_s, 4), f"{dirty} dirty labels")
    table.add_row("full CP-tree rebuild", round(rebuild_s, 4), "all labels")
    table.show()
    save_tables(
        "dynamic_maintenance",
        [table],
        extra={
            "incremental_s": incremental_s,
            "recompute_s": recompute_s,
            "repair_s": repair_s,
            "rebuild_s": rebuild_s,
            "dirty_labels": dirty,
        },
    )

    assert incremental_s < recompute_s
    # queries remain exact on the maintained structures
    q = next(iter(explorer.pg.vertices()))
    maintained = {c.vertices for c in explorer.explore(q, DEFAULT_K)}
    fresh = {c.vertices for c in pcs(explorer.pg, q, DEFAULT_K, method="basic")}
    assert maintained == fresh

    edit_graph = pg.graph.copy()
    edit_index = DynamicCoreIndex(edit_graph)

    def one_edit():
        edit_index.insert("bench-a", "bench-b")
        edit_index.remove("bench-a", "bench-b")

    benchmark(one_edit)
