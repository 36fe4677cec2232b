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

What an edit *adds* is absorbed on the spot, what it *takes away* waits
for the end of the batch:

=====================================  ===================================
edit                                   CL-trees of the labels concerned
=====================================  ===================================
``add_edge``                           patched (:func:`absorb_edge` →
                                       :meth:`CLTree.edge_inserted`)
label gained (``set_profile``,         patched (:func:`absorb_profile` →
``add_vertex``)                        :meth:`CLTree.vertex_joined`)
``remove_edge``, ``remove_vertex``,    journaled, rebuilt from the final
label lost (``set_profile``)           state by :func:`repair_cptree`
any edit on a label already journaled  stays journaled (one rebuild covers
in this batch, or with no CP-node yet  every edit of the batch)
``mark_index_stale``                   whole index rebuilt
=====================================  ===================================

A patch costs the region whose core numbers the edit can change (the
traversal algorithm, :func:`repro.graph.core.insertion_risers`), not the
label: most insertions into a large label merge no k-ĉores and lift no
core number, and leave its tree as it is. A patch is **copy on write** —
a changed tree is built on a private copy and published with the same
single store the rebuild uses (``CPNode.cltree = ...``), so a reader that
fetched the old tree keeps a consistent one. The caller
(:class:`~repro.core.profiled_graph.ProfiledGraph`) bumps the graph
version *before* any index work, patch or rebuild, so an optimistic
reader that overlapped the edit sees the version move and retries.

:class:`UpdateJournal` accumulates the rest of the damage as mutations
happen (O(|P(v)|) bookkeeping per edit, no scans), and
:func:`repair_cptree` replays it against the index: per-label membership
is patched from the journal's touched sets, journaled CL-trees are rebuilt
from the live graph, emptied CP-nodes are unlinked, new ones are created
parent-first, and the headMap entries of re-profiled vertices are
recomputed. Because labels are ancestor-closed, per-label member sets are
nested along the taxonomy (child ⊆ parent), which is what makes
drop/create link surgery safe: an emptied node's children are provably
empty too, and a created node can never have to adopt pre-existing
children.

A maintained index is indistinguishable from a fresh
:class:`~repro.index.cptree.CPTree` build — byte-equal through the
snapshot codec, checked across randomized edit sequences in
``tests/test_index_patch_properties.py``. Wholesale changes the journal
cannot express — swapping the taxonomy, replacing the label mapping — must
fall back to a full rebuild (``ProfiledGraph.index(rebuild=True)``), which
:meth:`UpdateJournal.mark_all` forces on the next access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Mapping, Optional, Set

from repro.graph.graph import Graph
from repro.index.cltree import CLTree
from repro.index.cptree import CPNode, CPTree, ptree_leaves

Vertex = Hashable
NodeSet = FrozenSet[int]


@dataclass(frozen=True)
class BatchDamage:
    """An immutable snapshot of one edit batch's journaled damage.

    :class:`UpdateJournal` is a mutable accumulator that the index repair
    clears; consumers that outlive the repair — the subscription matcher
    intersects these sets with standing queries' label footprints — take a
    frozen copy instead. ``dirty_labels`` are the taxonomy node ids whose
    induced subgraphs may have changed, ``touched`` the vertices whose
    membership or profile may have changed, ``removed`` the vertices
    dropped from the graph, and ``full`` means the journal could not
    express the damage (consumers must assume everything changed).
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
    """Pending CP-tree damage accumulated by profiled-graph mutations.

    The journal is order-independent: it records *which* labels and vertices
    an edit sequence may have affected, and :func:`repair_cptree` re-derives
    their final state from the live graph and label mapping. Recording is
    O(size of the touched profiles) per edit.
    """

    __slots__ = ("dirty_labels", "patched", "touched", "reprofiled", "dropped", "full")

    def __init__(self) -> None:
        #: Labels whose per-label CL-tree must be rebuilt.
        self.dirty_labels: Set[int] = set()
        #: Labels whose CL-tree absorbed an edit in place (nothing left to
        #: do for them; kept for the batch's receipt).
        self.patched: Set[int] = set()
        #: label → vertices whose membership in that label may have changed.
        self.touched: Dict[int, Set[Vertex]] = {}
        #: Vertices whose headMap entry must be recomputed.
        self.reprofiled: Set[Vertex] = set()
        #: Vertices removed from the graph (headMap entry must be dropped).
        self.dropped: Set[Vertex] = set()
        #: When set, the journal cannot express the damage — full rebuild.
        self.full: bool = False

    def __bool__(self) -> bool:
        return bool(
            self.full
            or self.dirty_labels
            or self.patched
            or self.reprofiled
            or self.dropped
        )

    @property
    def num_dirty_labels(self) -> int:
        return len(self.dirty_labels)

    @property
    def num_maintained_labels(self) -> int:
        """Labels whose CL-tree was patched in place or awaits its rebuild."""
        return len(self.dirty_labels | self.patched)

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
        """Force a full rebuild on the next index access."""
        self.full = True

    def clear(self) -> None:
        """Forget all journaled damage (after a repair or rebuild)."""
        self.dirty_labels.clear()
        self.patched.clear()
        self.touched.clear()
        self.reprofiled.clear()
        self.dropped.clear()
        self.full = False


def _depth(taxonomy, label: int) -> int:
    d = 0
    while True:
        label = taxonomy.parent(label)
        if label == -1:
            return d
        d += 1


def repair_cptree(
    index: CPTree,
    graph: Graph,
    vertex_labels: Mapping[Vertex, NodeSet],
    journal: UpdateJournal,
) -> int:
    """Patch ``index`` in place so it matches a fresh build; returns the
    number of per-label CL-trees rebuilt.

    Pre-condition: ``index`` was consistent with the graph/labels state the
    journal started recording from, and ``journal.full`` is False (callers
    handle the full-rebuild fallback themselves).
    """
    if journal.full:
        raise ValueError("journal demands a full rebuild; repair cannot express it")

    taxonomy = index.taxonomy
    nodes = index._nodes
    head_map = index._head_map

    # --- 1. final membership of every damaged label (order-independent:
    # derived from the live label mapping, not from the edit sequence).
    new_members: Dict[int, FrozenSet[Vertex]] = {}
    for label in journal.dirty_labels:
        node = nodes.get(label)
        members = set(node.vertices) if node is not None else set()
        for v in journal.touched.get(label, ()):
            if label in vertex_labels.get(v, ()):
                members.add(v)
            else:
                members.discard(v)
        new_members[label] = frozenset(members)

    # --- 2. drop emptied CP-nodes. Ancestor-closure nests member sets along
    # the taxonomy, so an emptied node's children are empty too — link
    # surgery is local.
    for label, members in new_members.items():
        if members:
            continue
        node = nodes.pop(label, None)
        if node is None:
            continue
        if node.parent is not None and node in node.parent.children:
            node.parent.children.remove(node)
        node.parent = None

    # --- 3. rebuild surviving dirty CL-trees; create new nodes parent-first
    # so their taxonomy links resolve within this same repair.
    rebuilt = 0
    surviving = [label for label, members in new_members.items() if members]
    surviving.sort(key=lambda label: _depth(taxonomy, label))
    for label in surviving:
        members = new_members[label]
        cltree = CLTree(graph, vertices=members)
        rebuilt += 1
        node = nodes.get(label)
        if node is None:
            node = CPNode(label, members, cltree)
            nodes[label] = node
            parent_label = taxonomy.parent(label)
            if parent_label != -1 and parent_label in nodes:
                node.parent = nodes[parent_label]
                node.parent.children.append(node)
        else:
            node.vertices = members
            node.cltree = cltree

    # --- 4. headMap: drop removed vertices, recompute re-profiled ones.
    for v in journal.dropped:
        head_map.pop(v, None)
    for v in journal.reprofiled:
        labels = vertex_labels.get(v)
        if labels is None:
            head_map.pop(v, None)
            continue
        head_map[v] = ptree_leaves(labels, taxonomy)
    index._num_vertices = len(head_map)
    return rebuilt


def _absorb(
    index: CPTree,
    journal: UpdateJournal,
    labels: Iterable[int],
    patch: Callable[[CLTree], CLTree],
    joined: Optional[Vertex] = None,
) -> None:
    """Patch the CL-tree of every clean label in ``labels``; journal the rest.

    A label already journaled in this batch, or without a CP-node yet, is
    left to :func:`repair_cptree` (its tree is stale or absent — there is
    nothing consistent to patch). ``joined`` is the vertex gaining the
    labels, when the edit is a membership change.
    """
    nodes = index._nodes
    for label in labels:
        node = nodes.get(label)
        if node is None or label in journal.dirty_labels:
            if joined is None:
                journal.dirty_labels.add(label)
            else:
                journal._touch(label, joined)
            continue
        # One store publishes the patched tree, as the rebuild does.
        node.cltree = patch(node.cltree)
        if joined is not None:
            node.vertices = node.vertices | {joined}
        journal.patched.add(label)


def absorb_edge(
    index: CPTree, graph: Graph, journal: UpdateJournal, u: Vertex, v: Vertex,
    shared: NodeSet,
) -> None:
    """Edge ``{u, v}``, already in ``graph``, enters the CL-trees of ``shared``
    (= ``T(u) ∩ T(v)``) by insertion; no tree is rebuilt for it."""
    if journal.full:
        return
    adj = graph.adjacency()
    _absorb(index, journal, shared, lambda tree: tree.edge_inserted(adj, u, v))


def absorb_profile(
    index: CPTree, graph: Graph, journal: UpdateJournal, v: Vertex,
    old: NodeSet, new: NodeSet,
) -> None:
    """``T(v)`` went from ``old`` to ``new`` (``old`` empty for a new vertex).

    Gained labels take ``v`` into their CL-tree by insertion; lost labels
    are journaled for rebuild; the headMap entry is recomputed by the
    end-of-batch repair either way.
    """
    if journal.full:
        return
    journal.reprofiled.add(v)
    journal.dropped.discard(v)
    for label in old - new:
        journal._touch(label, v)
    adj = graph.adjacency()
    _absorb(index, journal, new - old, lambda tree: tree.vertex_joined(adj, v), joined=v)
