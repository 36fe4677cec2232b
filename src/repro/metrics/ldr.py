"""Level-Diversity Ratio (paper Eq. 3).

LDR compares a method F against PCS level by level: for each depth i of the
query's P-tree, the number of unique labels appearing at level i across F's
community subtrees, divided by the same count for PCS's community subtrees,
averaged over levels:

    LDR(q, F) = (1/L) · Σᵢ  Σₕ Lᵢ(T(F, q, h)) / Σⱼ Lᵢ(T(PCS, q, j))

where T(·, q, x) is the maximal common subtree of the x-th returned
community and Lᵢ counts unique labels on level i. The paper reports
LDR(ACQ) ≈ 0.4–0.6: ACQ's communities cover roughly half of PCS's label
diversity per level.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence

from repro.core.community import ProfiledCommunity
from repro.core.profiled_graph import ProfiledGraph

Vertex = Hashable


def _level_label_count(communities: Sequence[ProfiledCommunity], level: int) -> int:
    """Σ over communities of the number of unique labels at ``level``.

    Unique within each community's subtree; summed across communities, as
    Eq. 3 sums over h (labels recurring in different communities count each
    time — that is what makes PCS's multiple themes add up).
    """
    total = 0
    for community in communities:
        total += len(community.subtree.level_nodes(level))
    return total


def level_diversity_ratio(
    pg: ProfiledGraph,
    q: Vertex,
    method_communities: Sequence[ProfiledCommunity],
    pcs_communities: Sequence[ProfiledCommunity],
) -> float:
    """LDR of a method versus PCS for one query (Eq. 3).

    Levels with no PCS labels are skipped (0/0); returns 0.0 when PCS found
    nothing at any level. Values below 1 mean the method under-covers PCS's
    per-level label diversity.
    """
    depth = pg.ptree(q).depth()
    if depth == 0:
        return 0.0
    ratios: List[float] = []
    for level in range(depth):
        pcs_count = _level_label_count(pcs_communities, level)
        if pcs_count == 0:
            continue
        method_count = _level_label_count(method_communities, level)
        ratios.append(method_count / pcs_count)
    if not ratios:
        return 0.0
    return sum(ratios) / len(ratios)
