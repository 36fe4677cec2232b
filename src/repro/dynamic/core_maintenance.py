"""Incremental core-number maintenance under edge insertions/deletions.

Community search is motivated by *online* workloads over evolving social
networks (paper §1; its related work cites dynamic community maintenance).
Recomputing the O(m) core decomposition after every edge change wastes most
of its work: a single edge insertion or deletion can only change core
numbers by at most one, and only inside a connected region around the edge
(the classic "traversal" insight of Sarıyüce et al. / Li et al.).

This module maintains a :class:`DynamicCoreIndex` alongside a graph:

* **insert(u, v)** — core numbers can only *increase*, by at most 1, and
  only for vertices in the ``r = min(core(u), core(v))`` subcore component
  around the edge: vertices of core exactly r reachable from the edge
  through vertices of core exactly r. We collect that candidate region
  with a BFS restricted to core-r vertices, then peel it with the k-core
  condition at r + 1 to find the vertices that actually rise. (A
  candidate rises iff it survives that peel, counting neighbours that
  are candidates or already have core > r.)
* **remove(u, v)** — core numbers can only *decrease*, by at most 1, and
  only inside the same region; we re-peel the candidate region against
  its boundary.

Why the BFS may stay inside core == r (it needs no core ≥ r detours): a
non-endpoint vertex changes only when a neighbour's core crosses the r/r+1
boundary, and every crossing vertex has core exactly r — so the changed
set is chained to an edge endpoint through core-r/core-r edges. Formally,
if a connected set S of core-r vertices not containing u or v could rise,
each of its members would already have had ≥ r+1 neighbours inside
S ∪ (old (r+1)-core), making S part of the old (r+1)-core — contradiction;
the deletion case mirrors this with the cascade re-peel of the old r-core,
whose first casualty must be an endpoint. (An earlier version of this
docstring demanded reachability through core ≥ r vertices; that larger
region is harmless but never needed — pinned down by the differential
tests in ``tests/test_dynamic.py`` that recompute the full decomposition
after *every* edit on bridge-heavy graphs.)

Every operation is verified against full recomputation in the test-suite
across tens of thousands of random edits.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Optional

from repro.errors import InvalidInputError, VertexNotFoundError
from repro.graph.core import (
    core_numbers,
    insertion_risers,
    peel_region,
    subcore_region,
)
from repro.graph.graph import Graph

Vertex = Hashable


class DynamicCoreIndex:
    """Core numbers of a graph, maintained across edge edits.

    The index owns neither the graph nor its edits: call :meth:`insert` /
    :meth:`remove`, which mutate the graph *and* update the core numbers.

    Examples
    --------
    >>> g = Graph([(0, 1), (1, 2), (2, 0)])
    >>> index = DynamicCoreIndex(g)
    >>> index.core(0)
    2
    >>> index.insert(2, 3)
    >>> index.core(3)
    1
    """

    __slots__ = ("graph", "_core")

    def __init__(self, graph: Graph, cores: Optional[Dict[Vertex, int]] = None):
        self.graph = graph
        #: ``cores`` lets a caller seed from an existing decomposition
        #: (e.g. a freshly built CL-tree) instead of re-peeling O(m).
        self._core: Dict[Vertex, int] = (
            dict(cores) if cores is not None else core_numbers(graph)
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def core(self, v: Vertex) -> int:
        """Current core number of ``v``."""
        try:
            return self._core[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def core_numbers(self) -> Dict[Vertex, int]:
        """A copy of all current core numbers."""
        return dict(self._core)

    def k_core_vertices(self, k: int) -> FrozenSet[Vertex]:
        """Vertices of the current k-core."""
        return frozenset(v for v, c in self._core.items() if c >= k)

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        """Add an isolated vertex (core number 0)."""
        self.graph.add_vertex(v)
        self._core.setdefault(v, 0)

    def insert(self, u: Vertex, v: Vertex) -> None:
        """Insert edge {u, v} and update core numbers (+1 region at most)."""
        if u == v:
            raise InvalidInputError("self-loops are not allowed")
        if self.graph.has_edge(u, v):
            return
        self.graph.add_edge(u, v)
        self.edge_inserted(u, v)

    def edge_inserted(self, u: Vertex, v: Vertex) -> None:
        """Update core numbers for edge {u, v} already added to the graph.

        The hook form of :meth:`insert` for callers that own the mutation
        (e.g. :class:`~repro.core.profiled_graph.ProfiledGraph`'s versioned
        update API applies the edit, then lets attached maintainers react).
        """
        self._core.setdefault(u, 0)
        self._core.setdefault(v, 0)
        root, risen = insertion_risers(self.graph.adjacency(), self._core, u, v)
        for w in risen:
            self._core[w] = root + 1

    def remove(self, u: Vertex, v: Vertex) -> None:
        """Remove edge {u, v} and update core numbers (−1 region at most)."""
        if not self.graph.has_edge(u, v):
            return
        self.graph.remove_edge(u, v)
        self.edge_removed(u, v)

    def edge_removed(self, u: Vertex, v: Vertex) -> None:
        """Update core numbers for edge {u, v} already removed from the graph.

        The hook form of :meth:`remove` (see :meth:`edge_inserted`).
        """
        root = min(self._core[u], self._core[v])
        if root == 0:
            return
        adj = self.graph.adjacency()
        candidates = subcore_region(adj, self._core, (u, v), root)
        for w in candidates - peel_region(adj, self._core, candidates, root):
            self._core[w] = root - 1

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` with all incident edges (edge-by-edge maintenance)."""
        if v not in self.graph:
            raise VertexNotFoundError(v)
        for u in list(self.graph.neighbors(v)):
            self.remove(v, u)
        self.graph.remove_vertex(v)
        del self._core[v]

    def vertex_dropped(self, v: Vertex) -> None:
        """Forget ``v`` after an external removal.

        External callers must drain ``v``'s incident edges first (through
        :meth:`remove` or :meth:`edge_removed`, which need both endpoints
        alive to bound their candidate regions), then drop the isolated
        vertex and call this to retire its core entry.
        """
        self._core.pop(v, None)

    def verify(self) -> bool:
        """Whether the maintained numbers equal a fresh decomposition."""
        return self._core == core_numbers(self.graph)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DynamicCoreIndex(n={len(self._core)})"
