#!/usr/bin/env python3
"""Beyond the paper's core: detection, relaxations, alternative cohesion.

Demonstrates the extensions the paper sketches in its conclusion (§6) and
related-work discussion (§2), all implemented in this reproduction:

* community detection by sweeping PCS over seed vertices;
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
    coverage,
    detect_communities,
    pcs,
    similarity_filtered_graph,
)
from repro.datasets import fig1_profiled_graph, load_dataset


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

    # --- community detection over the whole graph (CD via CS, §2)
    communities = detect_communities(pg, 2)
    print(f"Community detection at k=2 found {len(communities)} communities "
          f"covering {coverage(pg, communities):.0%} of the graph:")
    for community in communities:
        print(f"  {sorted(community.vertices)}  theme={sorted(community.theme())}")

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

    # --- detection at dataset scale
    small = load_dataset("acmdl", scale=0.004, seed=3)
    detected = detect_communities(small, 6, max_seeds=25, min_size=4)
    print(
        f"\nOn a {small.num_vertices}-vertex ACMDL sample, 25 PCS seeds "
        f"detect {len(detected)} communities (k=6), covering "
        f"{coverage(small, detected):.0%} of the graph."
    )


if __name__ == "__main__":
    main()
