"""F1-score against ground-truth communities (paper §5.2, Fig. 11).

The paper evaluates accuracy on Facebook ego-networks whose "friendship
circles" are ground truth: query 100 vertices inside circles and score the
returned communities with F1. As standard for overlapping ground truth, the
score of one query is the best F1 achieved between any returned community
and any ground-truth circle containing the query; dataset score is the mean
over queries.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Sequence

Vertex = Hashable


def f1_score(found: FrozenSet[Vertex], truth: FrozenSet[Vertex]) -> float:
    """Set-overlap F1 between one found community and one ground-truth set."""
    if not found or not truth:
        return 0.0
    intersection = len(found & truth)
    if intersection == 0:
        return 0.0
    precision = intersection / len(found)
    recall = intersection / len(truth)
    return 2.0 * precision * recall / (precision + recall)


def best_match_f1(
    q: Vertex,
    found_communities: Sequence[FrozenSet[Vertex]],
    ground_truth: Sequence[FrozenSet[Vertex]],
) -> float:
    """Best F1 of any found community against any circle containing q.

    Falls back to all circles when none contains q (the query may sit
    outside every planted circle); returns 0.0 when either side is empty.
    """
    if not found_communities or not ground_truth:
        return 0.0
    relevant = [t for t in ground_truth if q in t] or list(ground_truth)
    return max(
        f1_score(frozenset(found), frozenset(truth))
        for found in found_communities
        for truth in relevant
    )
