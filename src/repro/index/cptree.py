"""The CP-tree index (paper §4.2, Algorithm 2).

The Core Profiled tree has one node per taxonomy label; node ``p`` stores the
CL-tree of the subgraph induced by the vertices whose P-tree contains
``p.label``. The CP-tree nodes are linked following the GP-tree (taxonomy)
structure, and a ``headMap`` records, for every vertex, the CP-tree nodes of
its P-tree's *leaf* labels — enough to restore the whole P-tree by walking
parents (labels are ancestor-closed).

The three advertised capabilities (paper §4.2) map to methods here:

* *Restore P-trees* — :meth:`CPTree.restore_ptree` via the headMap;
* *Locating k-ĉore* — :meth:`CPTree.get` = ``I.get(k, q, t)``: the k-ĉore
  containing ``q`` among vertices carrying the label, answered by the
  per-label CL-tree;
* *Query efficiency* — all PCS index-based algorithms consume this object.

Complexities match the paper: construction O(|P| · m · α(n)) time and
O(|P| · n) space, both linear in the size of the profiled graph for a fixed
average profile size.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Tuple

from repro.errors import InvalidInputError, LabelNotFoundError
from repro.graph.graph import Graph
from repro.index.cltree import CLTree, induced_cltrees
from repro.ptree.taxonomy import Taxonomy

Vertex = Hashable
NodeSet = FrozenSet[int]

EMPTY: FrozenSet[Vertex] = frozenset()


def ptree_leaves(labels: NodeSet, taxonomy: Taxonomy) -> Tuple[int, ...]:
    """The headMap entry of a label set: its leaves, sorted.

    A label is a leaf of the (ancestor-closed) set when none of its
    taxonomy children is in the set, that is, when it is no member's
    parent. Shared by construction and by incremental maintenance
    (:mod:`repro.index.maintenance`) so the two can never diverge on
    headMap semantics.
    """
    return tuple(sorted(labels.difference(map(taxonomy.parent, labels))))


class CPNode:
    """One CP-tree node: a taxonomy label plus the CL-tree of its subgraph."""

    __slots__ = ("label", "vertices", "cltree", "parent", "children")

    def __init__(self, label: int, vertices: FrozenSet[Vertex], cltree: CLTree):
        self.label = label
        self.vertices = vertices
        self.cltree = cltree
        self.parent: Optional["CPNode"] = None
        self.children: List["CPNode"] = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CPNode(label={self.label}, n={len(self.vertices)})"


class CPTree:
    """The CP-tree index over a profiled graph.

    Parameters
    ----------
    graph:
        Graph topology.
    vertex_labels:
        Mapping vertex → ancestor-closed frozenset of taxonomy node ids
        (the vertex's P-tree node set).
    taxonomy:
        The GP-tree anchoring all label ids.
    validate:
        When true (default), check that every label set is ancestor-closed.

    Notes
    -----
    Only labels that occur in at least one vertex's P-tree get a CP-node;
    :meth:`get` returns the empty set for unused labels.
    """

    __slots__ = ("taxonomy", "_nodes", "_head_map", "_num_vertices")

    def __init__(
        self,
        graph: Graph,
        vertex_labels: Mapping[Vertex, NodeSet],
        taxonomy: Taxonomy,
        validate: bool = True,
    ):
        for v, labels in vertex_labels.items():
            if v not in graph:
                raise InvalidInputError(f"profiled vertex {v!r} is not in the graph")
            if validate and labels and not taxonomy.is_ancestor_closed(labels):
                raise InvalidInputError(
                    f"label set of vertex {v!r} is not ancestor-closed"
                )
        # --- Algorithm 2, lines 2-7: bucket vertices per label, fill headMap.
        buckets = self._bucket(vertex_labels, taxonomy)
        # --- Algorithm 2, lines 8-10: one CL-tree per label, CP-nodes
        # linked following the GP-tree.
        trees = induced_cltrees(graph, buckets.values())
        self._link(
            CPNode(label, frozenset(members), tree)
            for (label, members), tree in zip(buckets.items(), trees)
        )

    @classmethod
    def from_parts(
        cls,
        vertex_labels: Mapping[Vertex, NodeSet],
        taxonomy: Taxonomy,
        cltrees: Mapping[int, "CLTree"],
    ) -> "CPTree":
        """Assemble a CP-tree from per-label CL-trees built elsewhere.

        How snapshot decode (:func:`repro.storage.load_snapshot_bytes` —
        disk boot, replica bootstrap and worker bootstrap alike)
        reinstates an index without re-peeling a core. ``cltrees`` must
        contain exactly one CL-tree per label that occurs in
        ``vertex_labels`` — the same bucketing the sequential constructor
        performs — and each CL-tree must describe the subgraph induced on
        that label's carriers. Produces an index observationally
        identical to a whole build (checked by the save → load property
        tests).
        """
        self = cls.__new__(cls)
        buckets = self._bucket(vertex_labels, taxonomy)
        missing = set(buckets) - set(cltrees)
        extra = set(cltrees) - set(buckets)
        if missing or extra:
            raise InvalidInputError(
                f"CL-trees do not match the labels in use: no tree for "
                f"{sorted(missing)[:5]}, trees for unused {sorted(extra)[:5]}"
            )
        self._link(
            CPNode(label, frozenset(members), cltrees[label])
            for label, members in buckets.items()
        )
        return self

    def _bucket(
        self, vertex_labels: Mapping[Vertex, NodeSet], taxonomy: Taxonomy
    ) -> Dict[int, List[Vertex]]:
        """Fill the headMap; return each label's carriers."""
        self.taxonomy = taxonomy
        buckets: Dict[int, List[Vertex]] = defaultdict(list)
        head_map: Dict[Vertex, Tuple[int, ...]] = {}
        # Label sets repeat heavily (snapshot decode interns them), so
        # leaves are computed once per distinct set, not once per vertex.
        leaf_cache: Dict[NodeSet, Tuple[int, ...]] = {}
        for v, labels in vertex_labels.items():
            for x in labels:
                buckets[x].append(v)
            leaves = leaf_cache.get(labels)
            if leaves is None:
                leaves = leaf_cache[labels] = ptree_leaves(labels, taxonomy)
            head_map[v] = leaves
        self._head_map = head_map
        self._num_vertices = len(head_map)
        return buckets

    def _link(self, nodes: Iterable[CPNode]) -> None:
        self._nodes: Dict[int, CPNode] = {node.label: node for node in nodes}
        for node in self._nodes.values():
            self.attach(node)

    def attach(self, node: CPNode) -> None:
        """Hang ``node`` under the CP-node of its taxonomy parent, if any."""
        parent = self._nodes.get(self.taxonomy.parent(node.label))
        if parent is not None:
            node.parent = parent
            parent.children.append(node)

    # ------------------------------------------------------------------
    # the paper's API
    # ------------------------------------------------------------------
    def get(self, k: int, q: Vertex, label: int) -> FrozenSet[Vertex]:
        """``I.get(k, q, t)``: the k-ĉore containing ``q`` whose vertices carry ``label``.

        Returns the empty set when the label is unused, ``q`` does not carry
        it, or ``q`` does not survive k-core peeling of the label's subgraph.
        """
        node = self._nodes.get(label)
        if node is None:
            return EMPTY
        return node.cltree.kcore_vertices(q, k)

    def restore_ptree(self, v: Vertex) -> NodeSet:
        """Restore T(v)'s node set from the headMap (paper: leaf→root walks)."""
        try:
            leaves = self._head_map[v]
        except KeyError:
            raise InvalidInputError(f"vertex {v!r} is not profiled in this index") from None
        return self.taxonomy.closure(leaves)

    def head_labels(self, v: Vertex) -> Tuple[int, ...]:
        """The headMap entry of ``v``: leaf label ids of its P-tree."""
        try:
            return self._head_map[v]
        except KeyError:
            raise InvalidInputError(f"vertex {v!r} is not profiled in this index") from None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def node(self, label: int) -> CPNode:
        """The CP-node of ``label`` (raises when the label indexes no vertex)."""
        try:
            return self._nodes[label]
        except KeyError:
            raise LabelNotFoundError(label) from None

    def has_label(self, label: int) -> bool:
        return label in self._nodes

    def labels(self) -> Iterable[int]:
        """All label ids that index at least one vertex."""
        return self._nodes.keys()

    def vertices_with_label(self, label: int) -> FrozenSet[Vertex]:
        """All vertices whose P-tree contains ``label``."""
        node = self._nodes.get(label)
        return node.vertices if node is not None else EMPTY

    @property
    def num_labels(self) -> int:
        return len(self._nodes)

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CPTree(labels={self.num_labels}, vertices={self.num_vertices})"
