"""The CL-tree: nested k-ĉores organised as a tree (paper §4.1).

Because k-cores are nested (j-ĉore ⊆ i-ĉore for i < j), all the k-ĉores of a
graph form a laminar family and can be stored in one tree: each CL-tree node
represents a k-ĉore component at its core level, *anchoring* the vertices
whose core number equals that level; the vertices of the full k-ĉore are the
anchored vertices of the node plus those of all its descendants. The
structure comes from ACQ [11]; as in the paper we skip ACQ's per-node
keyword lists.

Construction is bottom-up with union–find: process core levels in decreasing
order, adding the vertices anchored at each level and merging components
through their edges, creating one CL-tree node per component that gained
vertices. Complexity O(m · α(n)) after the O(m) core decomposition.

A ``vertexNodeMap`` gives each vertex its anchoring node; answering "the
k-ĉore containing q" is a walk up the ancestor chain (cores strictly
decrease upward) followed by a subtree read-out. Subtree vertex sets are
served from a flat Euler-tour array, so each node's k-ĉore is one contiguous
slice, materialised into a frozenset at most once.

A built tree is never mutated. The edit operations —
:meth:`CLTree.edge_inserted` / :meth:`CLTree.vertex_joined` and their
inverses :meth:`CLTree.edge_removed` / :meth:`CLTree.vertex_left` — return
a patched private copy when the edit changes the tree, so a reader holding
the old tree keeps a consistent one, memoised subtree sets included. The
edge operations decide on the live tree whether anything changes at all.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set

from repro.graph.core import (
    Adjacency,
    core_numbers,
    core_numbers_within,
    insertion_risers,
    removal_fallers,
)
from repro.graph.graph import Graph

Vertex = Hashable

EMPTY: FrozenSet[Vertex] = frozenset()

_VIRTUAL_CORE = -1


class CLNode:
    """One component of one core level.

    Attributes
    ----------
    core:
        The core level of this node (``-1`` for the synthetic root that glues
        disconnected components together).
    vertices:
        Vertices anchored here: members of this component whose core number
        equals ``core``.
    parent, children:
        Tree links; children have strictly larger core levels.
    """

    __slots__ = ("core", "vertices", "parent", "children", "_start", "_end", "_cache")

    def __init__(self, core: int, vertices: List[Vertex]):
        self.core = core
        self.vertices = vertices
        self.parent: Optional["CLNode"] = None
        self.children: List["CLNode"] = []
        self._start = 0
        self._end = 0
        self._cache: Optional[FrozenSet[Vertex]] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "#" if not self.vertices else ",".join(map(str, self.vertices[:4]))
        return f"CLNode({self.core}:{tag})"


class _OneVertexView:
    """``adj`` showing, of one vertex's edges, only those to ``shown``.

    A joining or leaving vertex has its edges inserted or removed one at a
    time; each step must see exactly the edges the tree has seen, from
    both sides, whether or not ``adj`` still holds the vertex.
    """

    __slots__ = ("_adj", "_vertex", "shown")

    def __init__(self, adj: Adjacency, vertex: Vertex, shown: Iterable[Vertex] = ()):
        self._adj = adj
        self._vertex = vertex
        self.shown: Set[Vertex] = set(shown)

    def __getitem__(self, x: Vertex) -> Iterable[Vertex]:
        if x == self._vertex:
            return self.shown
        neighbours = self._adj[x]
        if (self._vertex in neighbours) == (x in self.shown):
            return neighbours
        return neighbours ^ {self._vertex}


def _split_off(
    adj: Adjacency, core: Dict[Vertex, int], seeds: Iterable[Vertex], level: int
) -> List[Set[Vertex]]:
    """The components of the core ≥ ``level`` subgraph around ``seeds``,
    all but one of them — ``[]`` when the seeds are connected.

    The search runs breadth-first from every seed at once, one vertex per
    side in turn; sides that meet merge. It stops when a single side is
    still growing: every other side ran out and is a whole component, and
    the last one is whatever is left of the ĉore, never explored to its
    end. So a split costs about the size of the pieces that break away.
    """
    owner: Dict[Vertex, int] = {}
    members: List[Set[Vertex]] = []
    frontier: List[deque] = []
    for s in seeds:
        if s not in owner and core.get(s, -1) >= level:
            owner[s] = len(members)
            members.append({s})
            frontier.append(deque((s,)))
    growing = set(range(len(members)))
    pieces: List[Set[Vertex]] = []
    while len(growing) > 1:
        for i in list(growing):
            if i not in growing:
                continue  # merged into another side this round
            if not frontier[i]:
                growing.discard(i)
                pieces.append(members[i])
                if len(growing) == 1:
                    break
                continue
            x = frontier[i].popleft()
            for y in adj[x]:
                j = owner.get(y, i)
                if j != i:
                    # Two sides met: the smaller one joins the larger.
                    if len(members[j]) > len(members[i]):
                        i, j = j, i
                    for z in members[j]:
                        owner[z] = i
                    members[i] |= members[j]
                    frontier[i].extend(frontier[j])
                    growing.discard(j)
                elif y not in owner and core.get(y, -1) >= level:
                    owner[y] = i
                    members[i].add(y)
                    frontier[i].append(y)
            if len(growing) == 1:
                break
    return pieces


class CLTree:
    """Index of all k-ĉores of (an induced subgraph of) a graph.

    Parameters
    ----------
    graph:
        The host graph.
    vertices:
        Optional vertex selection; when given, the CL-tree describes the
        subgraph induced on it (used per-label inside the CP-tree).
    """

    __slots__ = ("_root", "_node_of", "_core_of", "_order")

    def __init__(
        self,
        graph: Graph,
        vertices: Optional[Iterable[Vertex]] = None,
    ):
        # The whole-graph build takes the unrestricted peel — it skips
        # the selection bookkeeping and is the form the CSR backend
        # accelerates hardest.
        if vertices is None:
            core = core_numbers(graph)
        else:
            core = core_numbers_within(graph, vertices)
        self._core_of: Dict[Vertex, int] = core
        self._node_of: Dict[Vertex, CLNode] = {}
        self._root = self._build(graph, core)
        self._order: List[Vertex] = []
        self._assign_euler_intervals()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, graph: Graph, core: Dict[Vertex, int]) -> CLNode:
        if not core:
            return CLNode(_VIRTUAL_CORE, [])
        adj = graph.adjacency()
        levels: Dict[int, List[Vertex]] = {}
        for v, c in core.items():
            levels.setdefault(c, []).append(v)

        parent: Dict[Vertex, Vertex] = {}
        size: Dict[Vertex, int] = {}
        crowns: Dict[Vertex, List[CLNode]] = {}

        def find(x: Vertex) -> Vertex:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:  # path compression
                parent[x], x = root, parent[x]
            return root

        def union(x: Vertex, y: Vertex) -> None:
            rx, ry = find(x), find(y)
            if rx == ry:
                return
            if size[rx] < size[ry]:
                rx, ry = ry, rx
            parent[ry] = rx
            size[rx] += size[ry]
            merged = crowns.pop(ry, [])
            if merged:
                crowns.setdefault(rx, []).extend(merged)

        for k in sorted(levels, reverse=True):
            members = levels[k]
            for v in members:
                parent[v] = v
                size[v] = 1
            for v in members:
                for u in adj[v]:
                    if core.get(u, -1) >= k:
                        union(v, u)
            groups: Dict[Vertex, List[Vertex]] = {}
            for v in members:
                groups.setdefault(find(v), []).append(v)
            for root, anchored in groups.items():
                node = CLNode(k, anchored)
                for child in crowns.get(root, ()):
                    child.parent = node
                    node.children.append(child)
                crowns[root] = [node]
                for v in anchored:
                    self._node_of[v] = node

        roots = [node for nodes in crowns.values() for node in nodes]
        if len(roots) == 1:
            return roots[0]
        virtual = CLNode(_VIRTUAL_CORE, [])
        for node in roots:
            node.parent = virtual
            virtual.children.append(node)
        return virtual

    def _assign_euler_intervals(self) -> None:
        order = self._order
        stack: List[tuple] = [(self._root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                node._end = len(order)
                continue
            node._start = len(order)
            order.extend(node.vertices)
            stack.append((node, True))
            for child in node.children:
                stack.append((child, False))

    @classmethod
    def from_arrays(
        cls, records: Iterable[tuple]
    ) -> "CLTree":
        """Reassemble a CL-tree from ``(core, parent_index, vertices)`` rows.

        The inverse of walking :meth:`nodes`: ``records`` lists every
        CL-node in preorder (each parent before its children), where
        ``parent_index`` is the row index of the node's parent (``None``
        for the root) and ``vertices`` are the vertices anchored at that
        node. Used by :mod:`repro.storage.snapshot` to restore an index
        from disk without re-running the O(m) core decomposition — core
        numbers are implied by the anchoring node's level, and the Euler
        intervals are reassigned on load. An empty iterable yields the
        empty index.
        """
        self = cls.__new__(cls)
        self._core_of = {}
        self._node_of = {}
        nodes: List[CLNode] = []
        for core, parent_index, vertices in records:
            node = CLNode(core, list(vertices))
            if parent_index is not None:
                parent = nodes[parent_index]
                node.parent = parent
                parent.children.append(node)
            nodes.append(node)
            if core != _VIRTUAL_CORE:
                for v in node.vertices:
                    self._core_of[v] = core
                    self._node_of[v] = node
        self._root = nodes[0] if nodes else CLNode(_VIRTUAL_CORE, [])
        self._order = []
        self._assign_euler_intervals()
        return self

    # ------------------------------------------------------------------
    # insertion (copy on write; the traversal algorithm on the tree)
    # ------------------------------------------------------------------
    def edge_inserted(self, adj: Adjacency, u: Vertex, v: Vertex) -> "CLTree":
        """The tree after edge ``{u, v}`` joined the indexed subgraph.

        ``adj`` already holds the edge and both endpoints are indexed.
        Returns ``self`` when the edge merges no k-ĉores and lifts no core
        number (most insertions into a dense label); otherwise a patched
        copy equal to a fresh build over the new subgraph, in time
        proportional to the core-``K`` region around the edge plus one
        O(n) tree copy. ``self`` is left untouched either way.
        """
        level, risen = insertion_risers(adj, self._core_of, u, v)
        if not risen and self._top(u, level) is self._top(v, level):
            return self
        patched = self._copy()
        patched._absorb_edge(adj, u, v, level, risen)
        patched._assign_euler_intervals()
        return patched

    def vertex_joined(self, adj: Adjacency, w: Vertex) -> "CLTree":
        """The tree after ``w`` (not yet indexed) joined the indexed subgraph.

        ``w`` enters as an isolated core-0 vertex and its edges to indexed
        neighbours are then inserted one at a time. Each insertion runs on
        a view of ``adj`` that hides the edges of ``w`` not inserted yet,
        from both sides — the traversal must not count edges the tree has
        not seen. Always returns a patched copy.
        """
        patched = self._copy()
        core = patched._core_of
        core[w] = 0
        patched._node_of[w] = lone = CLNode(0, [w])
        root = patched._root
        if len(core) == 1:
            patched._root = lone
        else:
            if root.core != _VIRTUAL_CORE:
                patched._root = CLNode(_VIRTUAL_CORE, [])
                patched._adopt(patched._root, [root])
            patched._adopt(patched._root, [lone])
        view = _OneVertexView(adj, w)
        for x in adj[w]:
            if x in core:
                view.shown.add(x)
                level, risen = insertion_risers(view, core, w, x)
                patched._absorb_edge(view, w, x, level, risen)
        patched._assign_euler_intervals()
        return patched

    # ------------------------------------------------------------------
    # removal (copy on write; the inverse of insertion)
    # ------------------------------------------------------------------
    def edge_removed(self, adj: Adjacency, u: Vertex, v: Vertex) -> "CLTree":
        """The tree after edge ``{u, v}`` left the indexed subgraph.

        ``adj`` no longer holds the edge and both endpoints are indexed.
        Returns ``self`` when no core number falls and ``u`` and ``v`` stay
        connected in the ``K``-core (most removals from a dense label);
        otherwise a patched copy equal to a fresh build over the new
        subgraph. ``self`` is left untouched either way.
        """
        level, fallen = removal_fallers(adj, self._core_of, u, v)
        if not fallen and not _split_off(adj, self._core_of, (u, v), level):
            return self
        patched = self._copy()
        patched._drop_edge(adj, u, v, level, fallen)
        patched._assign_euler_intervals()
        return patched

    def vertex_left(
        self, adj: Adjacency, w: Vertex, neighbours: Optional[Iterable[Vertex]] = None
    ) -> "CLTree":
        """The tree after indexed vertex ``w`` left the indexed subgraph.

        The inverse of :meth:`vertex_joined`: the edges of ``w`` to indexed
        neighbours are removed one at a time, each on a view that still
        shows the ones not removed yet, and the isolated core-0 ``w`` is
        then dropped. ``neighbours`` are ``w``'s neighbours when ``adj`` no
        longer holds ``w`` (a vertex removed from the graph); by default
        ``adj[w]``. Always returns a patched copy.
        """
        patched = self._copy()
        core = patched._core_of
        edges = adj[w] if neighbours is None else neighbours
        view = _OneVertexView(adj, w, (x for x in edges if x in core))
        for x in list(view.shown):
            view.shown.discard(x)
            level, fallen = removal_fallers(view, core, w, x)
            patched._drop_edge(view, w, x, level, fallen)
        del core[w]
        lone = patched._node_of.pop(w)
        root = patched._root
        if lone is root:
            patched._root = CLNode(_VIRTUAL_CORE, [])
        else:
            root.children.remove(lone)
            if len(root.children) == 1:
                patched._dissolve(root)
        patched._assign_euler_intervals()
        return patched

    def _copy(self) -> "CLTree":
        """A structural copy sharing only the vertex objects (no Euler order)."""
        clone = CLTree.__new__(CLTree)
        clone._core_of = dict(self._core_of)
        clone._node_of = node_of = {}
        clone._order = []
        twins: Dict[CLNode, CLNode] = {}
        for node in self.nodes():
            twin = twins[node] = CLNode(node.core, list(node.vertices))
            if node.parent is not None:
                twin.parent = twins[node.parent]
                twin.parent.children.append(twin)
            for v in twin.vertices:
                node_of[v] = twin
        clone._root = twins[self._root]
        return clone

    def _top(self, x: Vertex, level: int) -> CLNode:
        """The node whose subtree is the ``level``-ĉore containing ``x``
        (``x`` indexed with core ≥ ``level``)."""
        node = self._node_of[x]
        while node.parent is not None and node.parent.core >= level:
            node = node.parent
        return node

    @staticmethod
    def _adopt(parent: CLNode, children: Iterable[CLNode]) -> None:
        for child in children:
            child.parent = parent
            parent.children.append(child)

    def _fold(self, node: CLNode, into: CLNode) -> None:
        """Move ``node``'s anchored vertices and children to ``into``."""
        into.vertices.extend(node.vertices)
        for v in node.vertices:
            self._node_of[v] = into
        self._adopt(into, node.children)

    def _absorb_edge(
        self, adj: Adjacency, u: Vertex, v: Vertex, level: int, risen: Set[Vertex]
    ) -> None:
        """In-place body of :meth:`edge_inserted` (private copies only)."""
        a, b = self._top(u, level), self._top(v, level)
        if a is not b:
            self._zip(a, b)
        if risen:
            self._lift(adj, risen, level)

    def _zip(self, a: CLNode, b: CLNode) -> None:
        """Merge the ancestor chains of ``a`` and ``b`` below their lowest
        common ancestor: at every level both chains reach, the edge joined
        two ĉores into one."""
        chain: List[CLNode] = []
        above_a = set()
        node: Optional[CLNode] = a
        while node is not None:
            above_a.add(node)
            node = node.parent
        node = b
        while node not in above_a:
            chain.append(node)
            node = node.parent
        meet = node
        node = a
        while node is not meet:
            chain.append(node)
            node = node.parent
        for node in chain:
            node.parent.children.remove(node)
        chain.sort(key=lambda n: n.core, reverse=True)
        spine = [chain[0]]
        for node in chain[1:]:
            if node.core == spine[-1].core:
                self._fold(node, spine[-1])
            else:
                self._adopt(node, [spine[-1]])
                spine.append(node)
        self._adopt(meet, [spine[-1]])
        if meet.core == _VIRTUAL_CORE and len(meet.children) == 1:
            self._dissolve(meet)

    def _lift(self, adj: Adjacency, risen: Set[Vertex], level: int) -> None:
        """Move ``risen`` from their level-``level`` node into a new node one
        level up, together with every child ĉore they touch."""
        core = self._core_of
        home = self._node_of[next(iter(risen))]
        touched: Set[CLNode] = set()
        for x in risen:
            for y in adj[x]:
                if core.get(y, -1) > level:
                    touched.add(self._top(y, level + 1))
        lifted = CLNode(level + 1, list(risen))
        for x in risen:
            core[x] = level + 1
            self._node_of[x] = lifted
        home.vertices = [x for x in home.vertices if x not in risen]
        home.children = [c for c in home.children if c not in touched]
        for child in touched:
            if child.core == level + 1:
                self._fold(child, lifted)
            else:
                self._adopt(lifted, [child])
        self._adopt(home, [lifted])
        if not home.vertices:
            # (A root ``home`` has no child but ``lifted`` left: its ĉore
            # stays connected, now one level up.)
            self._dissolve(home)

    def _dissolve(self, node: CLNode) -> None:
        """Drop ``node``, which anchors no vertex any more: its children
        hang where it hung, and the only child of a root becomes the root."""
        if node.parent is None:
            (self._root,) = node.children
            self._root.parent = None
        else:
            node.parent.children.remove(node)
            self._adopt(node.parent, node.children)

    def _drop_edge(
        self, adj: Adjacency, u: Vertex, v: Vertex, level: int, fallen: Set[Vertex]
    ) -> None:
        """In-place body of :meth:`edge_removed` (private copies only)."""
        core = self._core_of
        home = self._top(u, level)
        if fallen:
            # The fallers leave ``home`` for the level below: its parent
            # when that is a level-(K−1) node, else a new one in between
            # (the inverse of :meth:`_lift`).
            below = home.parent
            if below is None or below.core != level - 1:
                below = CLNode(level - 1, [])
                if home.parent is None:
                    self._root = below
                else:
                    home.parent.children.remove(home)
                    self._adopt(home.parent, [below])
                self._adopt(below, [home])
            below.vertices.extend(fallen)
            for x in fallen:
                core[x] = level - 1
                self._node_of[x] = below
            home.vertices = [x for x in home.vertices if x not in fallen]
        # Level K: what is left of home's ĉore breaks apart only where a
        # faller or the edge was.
        seeds = [u, v, *(y for x in fallen for y in adj[x])]
        pieces = _split_off(adj, core, seeds, level)
        node = self._split(home, pieces)
        if fallen.isdisjoint((u, v)) and all((u in p) == (v in p) for p in pieces):
            return
        # Below K only the edge is gone, so a ĉore there splits only between
        # u and v. Walk up while it does; the first level that holds a path
        # between them holds it in every ĉore below too.
        while node is not None and node.core != _VIRTUAL_CORE:
            pieces = _split_off(adj, core, (u, v), node.core)
            if not pieces:
                return
            node = self._split(node, pieces)

    def _split(self, node: CLNode, pieces: List[Set[Vertex]]) -> Optional[CLNode]:
        """Give each of ``pieces`` — a component that broke away from
        ``node``'s ĉore at its level — its own node beside ``node``; return
        ``node``'s parent (the inverse of :meth:`_zip`).

        A piece takes its anchored vertices and its child ĉores along; a
        piece that anchors nothing is a single child ĉore and hangs one
        level down instead. A split root gets a virtual root. A ``node``
        left anchoring nothing dissolves into its parent.
        """
        if pieces and node.parent is None:
            self._root = CLNode(_VIRTUAL_CORE, [])
            self._adopt(self._root, [node])
        parent = node.parent
        for piece in pieces:
            anchored = [x for x in piece if self._node_of[x] is node]
            children = set()
            for below in {self._node_of[x] for x in piece} - {node}:
                while below.parent is not node:
                    below = below.parent
                children.add(below)
            node.children = [c for c in node.children if c not in children]
            moved: Iterable[CLNode] = children
            if anchored:
                node.vertices = [x for x in node.vertices if x not in piece]
                twin = CLNode(node.core, anchored)
                for x in anchored:
                    self._node_of[x] = twin
                self._adopt(twin, children)
                moved = (twin,)
            self._adopt(parent, moved)
        if not node.vertices:
            self._dissolve(node)
        return parent

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def root(self) -> CLNode:
        return self._root

    def __contains__(self, v: Vertex) -> bool:
        return v in self._core_of

    def core_number(self, v: Vertex) -> int:
        """Core number of ``v`` within the indexed subgraph (-1 if absent)."""
        return self._core_of.get(v, -1)

    def node_of(self, v: Vertex) -> Optional[CLNode]:
        """The CL-tree node anchoring ``v`` (the vertexNodeMap of the paper)."""
        return self._node_of.get(v)

    def kcore_node(self, q: Vertex, k: int) -> Optional[CLNode]:
        """The node whose subtree is the k-ĉore containing ``q``, or None."""
        node = self._node_of.get(q)
        if node is None or self._core_of[q] < k:
            return None
        while node.parent is not None and node.parent.core >= k:
            node = node.parent
        return node

    def subtree_vertices(self, node: CLNode) -> FrozenSet[Vertex]:
        """All vertices anchored in ``node``'s subtree (one Euler slice)."""
        if node._cache is None:
            node._cache = frozenset(self._order[node._start : node._end])
        return node._cache

    def kcore_vertices(self, q: Vertex, k: int) -> FrozenSet[Vertex]:
        """Vertex set of the k-ĉore containing ``q`` (empty when none exists)."""
        node = self.kcore_node(q, k)
        if node is None:
            return EMPTY
        return self.subtree_vertices(node)

    def nodes(self) -> Iterator[CLNode]:
        """All CL-tree nodes, preorder."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    @property
    def num_vertices(self) -> int:
        """Vertices covered by the index."""
        return len(self._core_of)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CLTree(n={self.num_vertices})"
