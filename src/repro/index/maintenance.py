"""Incremental CP-tree maintenance under profiled-graph mutations.

The CP-tree costs O(|P| · m · α(n)) to build (one CL-tree per taxonomy
label in use), which makes rebuild-per-edit hopeless for the online,
evolving-network workload the paper targets. A single edit, however, can
only damage a small, exactly-characterisable part of the index:

* an **edge edit** ``{u, v}`` changes the induced subgraph of label ``t``
  iff *both* endpoints carry ``t`` — only the CL-trees of ``T(u) ∩ T(v)``
  are concerned, and no membership changes at all;
* a **profile edit** on ``v`` changes membership only for labels in the
  symmetric difference ``old Δ new`` (labels kept on both sides keep the
  same induced subgraph);
* a **vertex add/remove** touches only the labels that vertex carries.

Every edit patches the CL-trees of the labels concerned as it lands, by
core maintenance in both directions (the traversal algorithm,
:func:`repro.graph.core.insertion_risers` and
:func:`~repro.graph.core.removal_fallers`); ``mark_index_stale`` drops the
index instead, and the next access builds it from scratch.

=====================================  ===================================
edit                                   CL-trees of the labels concerned
=====================================  ===================================
``add_edge`` / ``remove_edge``         :meth:`CLTree.edge_inserted` /
                                       :meth:`CLTree.edge_removed`
label gained (``set_profile``,         :meth:`CLTree.vertex_joined`
``add_vertex``)
label lost (``set_profile``,           :meth:`CLTree.vertex_left`
``remove_vertex``)
=====================================  ===================================

A patch costs the region whose core numbers the edit can change, not the
label: most edits of a large label move no core number and split or merge
no k-ĉore, and leave its tree as it is. A patch is **copy on write** — a
changed tree is built on a private copy and published with one store
(``CPNode.cltree = ...``), so a reader that fetched the old tree keeps a
consistent one. The caller
(:class:`~repro.core.profiled_graph.ProfiledGraph`) bumps the graph
version *before* any index work, so an optimistic reader that overlapped
the edit sees the version move and retries.

Membership changes carry the CP-node bookkeeping along: a label nobody
carried gets a CP-node whose tree is the joining vertex inserted into an
empty one, and a label nobody carries any more is unlinked. Because labels
are ancestor-closed, per-label member sets are nested along the taxonomy
(child ⊆ parent), so creating parent-first and unlinking child-first keeps
the link surgery local: a created node never has to adopt children, and an
unlinked node's children are gone already.

A maintained index is indistinguishable from a fresh
:class:`~repro.index.cptree.CPTree` build — byte-equal through the
snapshot codec, checked across randomized edit sequences in
``tests/test_index_patch_properties.py``.

:class:`UpdateJournal` is not part of maintenance: it is a tap that records
which labels and vertices a batch touched, which the subscription matcher
reads as a frozen :class:`BatchDamage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Set

from repro.graph.graph import Graph
from repro.index.cltree import CLTree
from repro.index.cptree import CPNode, CPTree, ptree_leaves

Vertex = Hashable
NodeSet = FrozenSet[int]


@dataclass(frozen=True)
class BatchDamage:
    """An immutable snapshot of one edit batch's journaled damage.

    :class:`UpdateJournal` is a mutable accumulator; consumers that outlive
    the batch — the subscription matcher intersects these sets with
    standing queries' label footprints — take a frozen copy instead.
    ``dirty_labels`` are the taxonomy node ids whose induced subgraphs may
    have changed, ``touched`` the vertices whose membership or profile may
    have changed, ``removed`` the vertices dropped from the graph, and
    ``full`` means the journal could not express the damage (consumers
    must assume everything changed).
    """

    dirty_labels: FrozenSet[int] = frozenset()
    touched: FrozenSet[Vertex] = frozenset()
    removed: FrozenSet[Vertex] = frozenset()
    full: bool = False

    @classmethod
    def from_journal(cls, journal: "UpdateJournal") -> "BatchDamage":
        """Freeze ``journal``'s current state (the journal keeps recording)."""
        touched: Set[Vertex] = set(journal.reprofiled)
        for vertices in journal.touched.values():
            touched |= vertices
        return cls(
            dirty_labels=frozenset(journal.dirty_labels),
            touched=frozenset(touched),
            removed=frozenset(journal.dropped),
            full=journal.full,
        )

    def __bool__(self) -> bool:
        return bool(self.full or self.dirty_labels or self.touched or self.removed)


class UpdateJournal:
    """The damage profiled-graph mutations did while this tap was attached.

    The journal is order-independent: it records *which* labels and vertices
    an edit sequence may have affected. Recording is O(size of the touched
    profiles) per edit.
    """

    __slots__ = ("dirty_labels", "touched", "reprofiled", "dropped", "full")

    def __init__(self) -> None:
        #: Labels whose per-label subgraph may have changed.
        self.dirty_labels: Set[int] = set()
        #: label → vertices whose membership in that label may have changed.
        self.touched: Dict[int, Set[Vertex]] = {}
        #: Vertices whose profile may have changed.
        self.reprofiled: Set[Vertex] = set()
        #: Vertices removed from the graph.
        self.dropped: Set[Vertex] = set()
        #: When set, the journal cannot express the damage.
        self.full: bool = False

    def _touch(self, label: int, v: Vertex) -> None:
        self.dirty_labels.add(label)
        self.touched.setdefault(label, set()).add(v)

    # ------------------------------------------------------------------
    # recording (one call per ProfiledGraph mutation)
    # ------------------------------------------------------------------
    def record_edge(self, labels_u: NodeSet, labels_v: NodeSet) -> None:
        """Edge {u, v} inserted or removed: only shared labels are damaged."""
        self.dirty_labels |= labels_u & labels_v

    def record_vertex_added(self, v: Vertex, labels: NodeSet) -> None:
        """Journal a vertex insertion (dirties the labels it carries)."""
        for t in labels:
            self._touch(t, v)
        self.reprofiled.add(v)
        self.dropped.discard(v)

    def record_vertex_removed(self, v: Vertex, labels: NodeSet) -> None:
        """Journal a vertex removal (dirties the labels it carried)."""
        for t in labels:
            self._touch(t, v)
        self.reprofiled.discard(v)
        self.dropped.add(v)

    def record_profile_change(self, v: Vertex, old: NodeSet, new: NodeSet) -> None:
        """T(v) replaced: membership changes exactly on ``old Δ new``."""
        for t in old ^ new:
            self._touch(t, v)
        self.reprofiled.add(v)

    def mark_all(self) -> None:
        """Record damage the journal cannot express (everything changed)."""
        self.full = True


def repair_cptree(*_args) -> int:
    """Deprecated no-op: every edit is patched as it lands, so an index has
    nothing left to repair at the end of a batch; returns the number of
    CL-trees rebuilt, always 0. Nothing calls it — it stays only while the
    end-to-end benchmark's traced pass still wraps it by name."""
    return 0


def absorb_edge(
    index: CPTree, graph: Graph, u: Vertex, v: Vertex, shared: NodeSet,
    removed: bool = False,
) -> None:
    """Edge ``{u, v}``, already inserted into or removed from ``graph``,
    enters or leaves the CL-trees of ``shared`` (= ``T(u) ∩ T(v)``)."""
    adj = graph.adjacency()
    for label in shared:
        node = index._nodes[label]
        tree = node.cltree
        node.cltree = (
            tree.edge_removed(adj, u, v) if removed else tree.edge_inserted(adj, u, v)
        )


def absorb_profile(
    index: CPTree, graph: Graph, v: Vertex, old: NodeSet, new: NodeSet,
    neighbours: Optional[Iterable[Vertex]] = None,
) -> None:
    """``T(v)`` went from ``old`` to ``new`` (``old`` empty for a new vertex).

    ``v`` leaves the CL-trees of the labels it lost, child label first, and
    a CP-node left empty is unlinked; it joins those of the labels it
    gained, parent label first, and a label nobody carried gets a CP-node.
    A vertex removed from ``graph`` loses every label and its headMap
    entry; ``neighbours`` are then its edges before the removal.
    """
    taxonomy = index.taxonomy
    nodes = index._nodes
    adj = graph.adjacency()
    for label in sorted(old - new, key=taxonomy.depth, reverse=True):
        node = nodes[label]
        node.vertices = node.vertices - {v}
        if node.vertices:
            node.cltree = node.cltree.vertex_left(adj, v, neighbours)
        else:
            del nodes[label]
            if node.parent is not None:
                node.parent.children.remove(node)
    for label in sorted(new - old, key=taxonomy.depth):
        node = nodes.get(label)
        if node is not None:
            node.cltree = node.cltree.vertex_joined(adj, v)
            node.vertices = node.vertices | {v}
            continue
        tree = CLTree.from_arrays(()).vertex_joined(adj, v)
        node = nodes[label] = CPNode(label, frozenset((v,)), tree)
        index.attach(node)
    head_map = index._head_map
    if v in graph:
        head_map[v] = ptree_leaves(new, taxonomy)
    else:
        head_map.pop(v, None)
    index._num_vertices = len(head_map)
