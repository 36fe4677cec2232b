"""The paper's two relaxations (§6): one profile filter, one cohesion model.

* **β-similarity**: "each vertex of the targeted community has a semantic
  similarity with the query vertex q of at least β".
  :func:`similarity_filtered_graph` keeps the β-similar vertices (normalised
  tree-edit-distance similarity against T(q)); Fig 12's variant (d) runs PCS
  on it, and so can any caller: ``pcs(similarity_filtered_graph(pg, q, β),
  q, k)``.
* **δ-degree**: "the proportion of vertices in a community having degrees of
  at least k is at least δ". :class:`FractionalKCoreCohesion` is a cohesion
  model every PCS method accepts: ``pcs(pg, q, k,
  cohesion=FractionalKCoreCohesion(δ))``. The paper gives no algorithm, so
  the model uses a deterministic greedy peel (documented below) that
  restores the exact k-core semantics at δ = 1.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable

from repro.core.cohesion import CohesionModel
from repro.core.profiled_graph import ProfiledGraph
from repro.errors import InvalidInputError
from repro.graph.core import k_core_within
from repro.graph.graph import Graph
from repro.ptree.ted import normalized_ptree_similarity

Vertex = Hashable

EMPTY: FrozenSet[Vertex] = frozenset()


def similarity_filtered_graph(
    pg: ProfiledGraph, q: Vertex, beta: float
) -> ProfiledGraph:
    """The profiled subgraph of vertices β-similar to q (q always kept).

    Similarity is ``1 − TED(T(v), T(q)) / |T(v) ∪ T(q)|`` (the same measure
    CPS uses), so β = 0 keeps everything and β = 1 keeps exact-profile twins.
    """
    if not 0.0 <= beta <= 1.0:
        raise InvalidInputError(f"beta must be in [0, 1], got {beta}")
    query_tree = pg.ptree(q)
    keep = [
        v
        for v in pg.vertices()
        if v == q or normalized_ptree_similarity(pg.ptree(v), query_tree) >= beta
    ]
    sub = pg.graph.subgraph(keep)
    profiles = {v: pg.labels(v) for v in keep}
    return ProfiledGraph(sub, pg.taxonomy, profiles, validate=False)


class FractionalKCoreCohesion(CohesionModel):
    """δ-relaxed minimum degree: ≥ δ·|C| members must have degree ≥ k.

    Greedy peel: start from q's connected component of the candidate
    subgraph; while the fraction of members with internal degree ≥ k is
    below δ, remove the lowest-degree vertex (never q; ties broken by vertex
    repr for determinism) and re-take q's component. δ = 1 reproduces the
    exact k-ĉore (verified in tests); the heuristic is documented as such —
    the paper proposes the relaxation without an algorithm.
    """

    name = "fractional-k-core"

    def __init__(self, delta: float):
        if not 0.0 < delta <= 1.0:
            raise InvalidInputError(f"delta must be in (0, 1], got {delta}")
        self.delta = delta

    def within(
        self, graph: Graph, candidates: Iterable[Vertex], k: int, q: Vertex
    ) -> FrozenSet[Vertex]:
        """Degree floor for a fractional core: ``ceil(fraction * k)``."""
        if self.delta == 1.0:
            return k_core_within(graph, candidates, k, q=q)
        adj = graph.adjacency()
        alive = {v for v in candidates if v in adj}
        if q not in alive:
            return EMPTY
        while True:
            component = self._component(adj, alive, q)
            if not component:
                return EMPTY
            degrees = {
                v: sum(1 for u in adj[v] if u in component) for v in component
            }
            satisfied = sum(1 for d in degrees.values() if d >= k)
            if satisfied >= self.delta * len(component):
                return frozenset(component)
            removable = [v for v in component if v != q]
            if not removable:
                return EMPTY
            victim = min(removable, key=lambda v: (degrees[v], repr(v)))
            alive = component - {victim}

    @staticmethod
    def _component(adj, alive, q):
        from collections import deque

        if q not in alive:
            return set()
        seen = {q}
        queue = deque((q,))
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w in alive and w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

