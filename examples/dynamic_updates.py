#!/usr/bin/env python3
"""Evolving profiled graphs: incremental cores and incremental index repair.

Social networks evolve; recomputing the CP-tree after every edge change
wastes almost all of its work. This example shows the dynamic layer:

* core numbers maintained incrementally under edge edits (at most ±1 within
  a bounded region — verified against full recomputation);
* the CP-tree repaired per batch of edits, only for the labels whose
  subgraphs changed (``CommunityExplorer.apply_updates``);
* PCS queries that stay exact across an edit stream.

Run:  python examples/dynamic_updates.py
"""

import random
import time

from repro.core import as_vertex_subtree_map, pcs
from repro.datasets import load_dataset
from repro.dynamic import DynamicCoreIndex
from repro.engine import CommunityExplorer
from repro.graph.generators import random_queries

K = 6
EDITS = 60
BATCH = 10


def main() -> None:
    pg = load_dataset("acmdl", scale=0.008, seed=11)
    explorer = CommunityExplorer(pg)
    print(f"dataset: {pg}")
    print(f"initial CP-tree build: {explorer.warm():.2f}s\n")

    rng = random.Random(5)
    vertices = sorted(pg.vertices())
    queries = random_queries(pg.graph, 3, K, seed=5)

    # An edit stream, made concrete against a scratch copy of the graph.
    scratch = pg.graph.copy()
    cores = DynamicCoreIndex(scratch)
    edits = []
    for _ in range(EDITS):
        u, v = rng.sample(vertices, 2)
        if scratch.has_edge(u, v):
            cores.remove(u, v)
            edits.append(("remove_edge", u, v))
        else:
            cores.insert(u, v)
            edits.append(("add_edge", u, v))
    assert cores.verify(), "incremental core numbers diverged!"
    print("incremental core numbers verified against full recomputation")

    repair_time = 0.0
    for start in range(0, EDITS, BATCH):
        receipt = explorer.apply_updates(edits[start : start + BATCH])
        repair_time += receipt.seconds
        print(
            f"after {start + BATCH:3d} edits: repaired {receipt.repaired_labels} "
            f"dirty labels (cumulative repair {repair_time:.2f}s)"
        )

    inserted = sum(op == "add_edge" for op, _, _ in edits)
    print(f"\napplied {inserted} insertions and {EDITS - inserted} removals")

    # Queries on the maintained index are exact.
    for q in queries:
        maintained = as_vertex_subtree_map(explorer.explore(q, K))
        fresh = as_vertex_subtree_map(pcs(pg, q, K, method="basic"))
        assert maintained == fresh, f"query {q} diverged"
    print(f"{len(queries)} PCS queries verified exact after the edit stream")

    # Compare incremental repair against a full rebuild.
    start = time.perf_counter()
    pg.index(rebuild=True)
    rebuild = time.perf_counter() - start
    print(
        f"\nfull rebuild: {rebuild:.2f}s vs cumulative incremental repair: "
        f"{repair_time:.2f}s over {EDITS} edits"
    )


if __name__ == "__main__":
    main()
