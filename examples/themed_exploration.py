#!/usr/bin/env python3
"""Beyond the paper's core: relaxations and alternative cohesion.

Demonstrates the extensions the paper sketches in its conclusion (§6),
all implemented in this reproduction:

* β-similarity: PCS on the graph filtered to vertices profile-similar to q;
* δ-relaxed minimum degree: PCS with a cohesion model that lets a fraction
  of members fall below k;
* k-truss structure cohesiveness instead of minimum degree.

Both relaxations are ordinary ``pcs`` calls: one on a filtered graph, one
with a different cohesion model.

Run:  python examples/themed_exploration.py
"""

from repro.core import (
    FractionalKCoreCohesion,
    pcs,
    similarity_filtered_graph,
)
from repro.datasets import fig1_profiled_graph


def show(title: str, result) -> None:
    print(f"\n{title}")
    if not result:
        print("  (no community)")
    for community in result:
        print(
            f"  members={sorted(map(str, community.vertices))} "
            f"theme={sorted(community.theme())}"
        )


def main() -> None:
    pg = fig1_profiled_graph()

    # --- β-similarity relaxation (§6)
    show("β-similarity PCS (q=D, k=2, β=0.3):",
         pcs(similarity_filtered_graph(pg, "D", 0.3), "D", 2))

    # --- δ-degree relaxation (§6)
    show("δ-relaxed PCS (q=D, k=3, δ=0.75):",
         pcs(pg, "D", 3, cohesion=FractionalKCoreCohesion(0.75)))
    show("strict PCS at k=3 for comparison:", pcs(pg, "D", 3))

    # --- alternative structure cohesiveness: k-truss (§1, §6)
    show("PCS with k-truss cohesion (q=D, k=3):",
         pcs(pg, "D", 3, cohesion="k-truss"))


if __name__ == "__main__":
    main()
