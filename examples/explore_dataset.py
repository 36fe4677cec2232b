#!/usr/bin/env python3
"""Exploring a profiled graph end to end: detection → summary → score.

A downstream-user workflow stitched from the library's analysis layer:

1. generate a dataset analogue with its planted ground truth;
2. detect the profiled community structure by sweeping PCS seeds;
3. summarise the cover (overlaps, dominant taxonomy branches);
4. score it against the planted ground truth.

Run:  python examples/explore_dataset.py
"""

from repro.analysis import (
    average_jaccard_match,
    describe_community,
    omega_index,
    summarize_cover,
)
from repro.core import detect_communities
from repro.datasets import load_dataset

K = 6


def main() -> None:
    pg, ground_truth = load_dataset("acmdl", scale=0.01, seed=4, with_ground_truth=True)
    print(f"dataset: {pg}")

    communities = detect_communities(pg, K, min_size=4)
    cover = summarize_cover(communities, pg.taxonomy)
    print(f"\ndetected cover: {cover.digest()}\n")

    for community in communities[:3]:
        print(describe_community(community, pg.taxonomy))

    truth_sets = [frozenset(c) for c in ground_truth if len(c) >= 4]
    found_sets = [c.vertices for c in communities]
    jaccard = average_jaccard_match(found_sets, truth_sets)
    omega = omega_index(found_sets, truth_sets, sorted(pg.vertices()))
    print(
        f"\nagainst planted ground truth: best-match Jaccard={jaccard:.3f}, "
        f"omega={omega:.3f}"
    )


if __name__ == "__main__":
    main()
