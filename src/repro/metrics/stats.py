"""Community-count statistics (paper Fig. 10(a))."""

from __future__ import annotations

from typing import Iterable, Sequence


def average_community_count(per_query: Iterable[Sequence]) -> float:
    """Mean number of communities returned per query (Fig. 10(a))."""
    counts = [len(communities) for communities in per_query]
    if not counts:
        return 0.0
    return sum(counts) / len(counts)
