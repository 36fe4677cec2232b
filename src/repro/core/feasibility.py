"""Feasibility oracle: computing and memoising Gk[T] (paper §3–§4).

Every PCS algorithm reduces to asking, for candidate subtrees T of the query
vertex's P-tree, whether ``Gk[T]`` — the largest connected subgraph
containing q, with minimum degree ≥ k, whose vertices all contain T — is
non-empty. The oracle centralises three ways of answering:

* **basic mode** (no index): candidates are found by scanning ``Gk`` and
  testing ``T ⊆ T(v)`` per vertex, exactly as Algorithm 1's "compute Gk[T]
  from Gk" — deliberately the slow path;
* **incremental** (Lemma 3): ``Gk[T] ⊆ Gk[T′] ∩ I.get(k, q, T∖T′)`` when T
  extends T′ by one node; the candidate set is the cached parent community
  intersected with one per-label k-ĉore from the CP-tree;
* **from leaves** (verifyPtree, §4.3.2): for an arbitrary subtree,
  ``Gk[T] ⊆ ⋂ᵢ I.get(k, q, tnᵢ)`` over T's leaf labels, because the k-ĉore
  of a label is contained in the k-ĉore of each of its ancestors.

The candidate set is then peeled by the cohesion model (k-core by default)
and q's component extracted — unless it is **already final: no peel**.
Under k-core cohesion every operand of the two index-backed intersections is
a connected k-core containing q (an ``I.get`` result or a memoised
``Gk[T′]``), and label sets are ancestor-closed, so every vertex of the
intersection carries all of T. When the intersection equals one of its
operands S (it then equals the smallest; a single leaf is the trivial case),
S is a connected k-core around q inside the carriers of T, so
``S ⊆ Gk[T] ⊆ candidates = S``: S is stored as is. By the same argument
``Gk[∅]`` is ``I.get(k, q, ROOT)`` when every graph vertex carries the root.
Other cohesion models and basic mode always peel.

Results are memoised by subtree, so repeated
verifications — the common case in border expansion and maximality checks —
cost one dict lookup. The ``verifications`` counter reports how many
*distinct* subtree communities were actually computed, the work measure the
paper's efficiency experiments vary.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Optional, Tuple

from repro.core.cohesion import CohesionModel, KCoreCohesion, get_cohesion
from repro.core.profiled_graph import ProfiledGraph
from repro.errors import VertexNotFoundError
from repro.index.cptree import CPTree
from repro.ptree.enumeration import addable_nodes
from repro.ptree.taxonomy import ROOT

Vertex = Hashable
NodeSet = FrozenSet[int]

EMPTY_NODES: NodeSet = frozenset()
EMPTY_VERTICES: FrozenSet[Vertex] = frozenset()


class FeasibilityOracle:
    """Memoised Gk[T] computation for one query (pg, q, k).

    Parameters
    ----------
    pg:
        The profiled graph.
    q:
        Query vertex.
    k:
        Structure cohesiveness parameter.
    index:
        The CP-tree, or ``None`` for the index-free (``basic``) mode.
    cohesion:
        Structure model; the CL-tree fast path is used only for k-core.
    """

    __slots__ = (
        "pg",
        "q",
        "k",
        "index",
        "cohesion",
        "base_nodes",
        "verifications",
        "_communities",
        "_taxonomy",
    )

    def __init__(
        self,
        pg: ProfiledGraph,
        q: Vertex,
        k: int,
        index: Optional[CPTree] = None,
        cohesion: Optional[CohesionModel] = None,
    ) -> None:
        if q not in pg.graph:
            raise VertexNotFoundError(q)
        self.pg = pg
        self.q = q
        self.k = k
        self.index = index
        self.cohesion = get_cohesion(cohesion) if cohesion is not None else KCoreCohesion()
        self.verifications = 0
        self._communities: Dict[NodeSet, FrozenSet[Vertex]] = {}
        self._taxonomy = pg.taxonomy
        self.base_nodes: NodeSet = self._prune_base(pg.labels(q))

    def _prune_base(self, base: NodeSet) -> NodeSet:
        """Drop *dead* labels from the search space (index-backed only).

        By Lemma 3, ``Gk[T] ⊆ I.get(k, q, x)`` for every x ∈ T, so a label
        whose per-label k-ĉore around q is empty can appear in no feasible
        subtree. Dead labels are descendant-closed (a child's k-ĉore is
        contained in its parent's), hence the surviving set stays
        ancestor-closed and the feasible subtree space is untouched. This
        is the index's cheapest and most effective pruning: private deep
        labels — dead by definition — never enter the search space.
        """
        if self.index is None or not self.cohesion.supports_core_index:
            return base
        alive = frozenset(
            x for x in base if self.index.get(self.k, self.q, x)
        )
        return alive

    # ------------------------------------------------------------------
    # label candidate sets
    # ------------------------------------------------------------------
    def _label_candidates(self, label: int) -> FrozenSet[Vertex]:
        """Vertices eligible for subtrees containing ``label``.

        With the k-core model this is the k-ĉore of the label's subgraph
        (``I.get(k, q, label)``); other cohesion models only get the raw
        label membership filter (their communities are not k-cores, so the
        CL-tree answer would be wrong).
        """
        if self.index is None:
            raise RuntimeError("label candidates require the CP-tree index")
        if self.cohesion.supports_core_index:
            return self.index.get(self.k, self.q, label)
        return self.index.vertices_with_label(label)

    # ------------------------------------------------------------------
    # community computation
    # ------------------------------------------------------------------
    def community(self, subtree: NodeSet) -> FrozenSet[Vertex]:
        """Gk[subtree], computed from scratch (memoised).

        Index mode intersects the candidate sets of the subtree's leaf
        labels (verifyPtree); basic mode scans Gk with subset tests.
        """
        cached = self._communities.get(subtree)
        if cached is not None:
            return cached
        if not subtree:
            return self._community_unconstrained()
        if subtree - self.base_nodes:
            # q itself lacks part of the subtree — infeasible by definition.
            return self._store(subtree, EMPTY_VERTICES)
        if self.index is None:
            return self._finish(subtree, self._basic_candidates(subtree))
        return self._finish(subtree, *self._leaf_intersection(subtree))

    def community_from_parent(
        self, subtree: NodeSet, parent: NodeSet, new_node: int
    ) -> FrozenSet[Vertex]:
        """Gk[subtree] where ``subtree = parent ∪ {new_node}`` (Lemma 3; memoised)."""
        cached = self._communities.get(subtree)
        if cached is not None:
            return cached
        if new_node not in self.base_nodes:
            return self._store(subtree, EMPTY_VERTICES)
        parent_community = self.community(parent)
        if not parent_community:
            return self._store(subtree, EMPTY_VERTICES)
        if self.index is None:
            # Algorithm 1 line 10: recompute from Gk with full subset scans.
            return self._finish(subtree, self._basic_candidates(subtree))
        return self._finish(
            subtree,
            *self._intersect([parent_community, self._label_candidates(new_node)]),
        )

    def _community_unconstrained(self) -> FrozenSet[Vertex]:
        """Gk[∅]: the cohesive subgraph containing q with no label constraint."""
        cached = self._communities.get(EMPTY_NODES)
        if cached is not None:
            return cached
        graph = self.pg.graph
        if (
            self.index is not None
            and self.cohesion.supports_core_index
            and len(self.index.vertices_with_label(ROOT)) == len(graph)
        ):
            community = self.index.get(self.k, self.q, ROOT)
        else:
            community = self.cohesion.within(graph, graph.vertices(), self.k, self.q)
        self.verifications += 1
        self._communities[EMPTY_NODES] = community
        return community

    def _basic_candidates(self, subtree: NodeSet) -> FrozenSet[Vertex]:
        gk = self._community_unconstrained()
        labels = self.pg.all_labels()
        return frozenset(v for v in gk if subtree <= labels[v])

    def _leaf_intersection(self, subtree: NodeSet) -> Tuple[FrozenSet[Vertex], bool]:
        tax = self._taxonomy
        return self._intersect(
            self._label_candidates(x)
            for x in subtree
            if not any(c in subtree for c in tax.children(x))
        )

    def _intersect(self, sets) -> Tuple[FrozenSet[Vertex], bool]:
        """``(⋂ sets, final)``: final when the meet is its smallest operand.

        The operand itself is returned then (for one leaf, the CL-tree's
        memoised frozenset), and under k-core cohesion needs no peel.
        """
        # Intersect smallest-first to keep intermediate sets small.
        smallest, *rest = sorted(sets, key=len)
        result = smallest.intersection(*rest) if rest else smallest
        if len(result) == len(smallest):
            return smallest, self.cohesion.supports_core_index
        return result, False

    def _finish(
        self, subtree: NodeSet, candidates: FrozenSet[Vertex], final: bool = False
    ) -> FrozenSet[Vertex]:
        self.verifications += 1
        if self.q not in candidates:
            return self._store(subtree, EMPTY_VERTICES)
        if not final:
            candidates = self.cohesion.within(self.pg.graph, candidates, self.k, self.q)
        return self._store(subtree, candidates)

    def _store(self, subtree: NodeSet, community: FrozenSet[Vertex]) -> FrozenSet[Vertex]:
        self._communities[subtree] = community
        return community

    # ------------------------------------------------------------------
    # feasibility and maximality
    # ------------------------------------------------------------------
    def is_feasible(self, subtree: NodeSet) -> bool:
        """Whether Gk[subtree] is non-empty (the paper's "T is feasible")."""
        return bool(self.community(subtree))

    def is_feasible_from_parent(
        self, subtree: NodeSet, parent: NodeSet, new_node: int
    ) -> bool:
        return bool(self.community_from_parent(subtree, parent, new_node))

    def is_maximal(self, subtree: NodeSet) -> bool:
        """No feasible one-node extension exists within T(q).

        By anti-monotonicity (Lemma 2) every feasible strict supertree of T
        contains a feasible one-node extension of T, so checking the
        immediate lattice children is exact.
        """
        if not self.is_feasible(subtree):
            return False
        for x in addable_nodes(self._taxonomy, self.base_nodes, subtree):
            if self.is_feasible_from_parent(subtree | {x}, subtree, x):
                return False
        return True
