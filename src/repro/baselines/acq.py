"""The ``ACQ`` baseline (Fang et al., PVLDB'16 — the paper's ref. [11]).

ACQ performs attributed community search with *keyword cohesiveness*: among
the k-core communities containing q, return those whose members share the
**largest number** of q's keywords. Following the paper's comparison setup
(§5.2): "To run ACQ queries, we set each vertex's attribute as a set of
keywords, which are the keywords in its P-tree" — i.e. the flat label set,
hierarchy discarded. That flattening is exactly what the case study (Figs.
7–8) exploits: ACQ returns only the community with the most shared labels
(PC1, seven labels on one chain) and misses PC2, whose five shared labels
form a bushier — more diverse — subtree.

The keyword-set search itself lives in :mod:`repro.core.keywords`; this
module adapts profiled graphs to it and wraps results as
:class:`ProfiledCommunity` so the effectiveness metrics apply uniformly.
"""

from __future__ import annotations

import time
from typing import Hashable, List

from repro.core.community import PCSResult, ProfiledCommunity
from repro.core.keywords import keyword_communities
from repro.core.profiled_graph import ProfiledGraph
from repro.ptree.ptree import PTree

Vertex = Hashable


def acq_query(pg: ProfiledGraph, q: Vertex, k: int) -> PCSResult:
    """ACQ on a profiled graph: communities sharing the most P-tree labels.

    Returns a :class:`PCSResult` whose communities carry, as their subtree,
    the maximal common subtree of their members (the shared *keywords* need
    not form a subtree; the common subtree is reported so that CPS/LDR/CPF
    compare like for like).
    """
    start = time.perf_counter()
    pairs = keyword_communities(pg.graph, pg.all_labels(), q, k)
    communities: List[ProfiledCommunity] = []
    seen = set()
    for _, members in pairs:
        if members in seen:
            continue
        seen.add(members)
        common = None
        for v in members:
            labels = pg.labels(v)
            common = labels if common is None else (common & labels)
        communities.append(
            ProfiledCommunity(
                query=q,
                k=k,
                vertices=members,
                subtree=PTree(pg.taxonomy, common or frozenset(), _validated=True),
            )
        )
    return PCSResult(
        query=q,
        k=k,
        method="ACQ",
        communities=communities,
        elapsed_seconds=time.perf_counter() - start,
    ).sort()
