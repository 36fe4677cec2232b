"""Community P-tree Frequency (paper Eq. 4).

CPF is "inspired by the document frequency measure": for each node of the
query's P-tree and each returned community, count the fraction of community
members whose P-tree contains that node, and average everything:

    CPF(q) = (1/(|G| · |T(q)|)) · Σᵢ Σⱼ freᵢⱼ / |Gᵢ|

Values lie in [0, 1]; higher means the communities' profiles cover more of
the query's own profile — better cohesiveness around q.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable

from repro.core.profiled_graph import ProfiledGraph

Vertex = Hashable


def community_ptree_frequency(
    pg: ProfiledGraph, q: Vertex, communities: Iterable[FrozenSet[Vertex]]
) -> float:
    """CPF of a query's result communities (Eq. 4).

    Returns 0.0 when there are no communities or T(q) is empty.
    """
    query_nodes = pg.labels(q)
    if not query_nodes:
        return 0.0
    community_list = [c for c in communities if c]
    if not community_list:
        return 0.0
    labels = pg.all_labels()
    total = 0.0
    for community in community_list:
        size = len(community)
        for node in query_nodes:
            frequency = sum(1 for v in community if node in labels[v])
            total += frequency / size
    return total / (len(community_list) * len(query_nodes))
