"""Undirected simple graph used throughout the reproduction.

The PCS algorithms only need a handful of operations — neighbour iteration,
degree queries, induced subgraphs and breadth-first traversals — but they need
them to be fast on graphs with millions of edges, so the adjacency structure
is a plain ``dict[int, set[int]]``. Vertices are arbitrary hashable ids; the
dataset generators use dense integers.

Self-loops and parallel edges are rejected: community-search cohesiveness
metrics (minimum degree, trusses) are defined on simple graphs.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, Optional, Set, Tuple

from repro.errors import InvalidInputError, VertexNotFoundError

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


class Graph:
    """An undirected simple graph backed by adjacency sets.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs inserted at construction time.
        Endpoints are added as vertices automatically.

    Examples
    --------
    >>> g = Graph([(0, 1), (1, 2)])
    >>> g.degree(1)
    2
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_adj", "_num_edges", "_csr", "_rev")

    def __init__(self, edges: Iterable[Edge] = ()) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._num_edges = 0
        #: Structural revision: every mutator bumps it *after* editing the
        #: adjacency, so a snapshot taken at revision r of a graph still at
        #: r saw no edit, finished or in flight.
        self._rev = 0
        #: Cached CSR snapshot (see repro.graph.csr), tagged with the
        #: revision it was built from and served only while that tag is
        #: current — a reader that finishes building after a writer moved
        #: on installs a view nobody will use.
        self._csr = None
        for u, v in edges:
            self.add_edge(u, v)

    def __getstate__(self) -> dict:
        # The CSR cache is a derived structure — rebuildable, and not
        # worth shipping across process boundaries.
        return {"_adj": self._adj, "_num_edges": self._num_edges}

    def __setstate__(self, state: dict) -> None:
        self._adj = state["_adj"]
        self._num_edges = state["_num_edges"]
        self._rev = 0
        self._csr = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        """Add an isolated vertex; a no-op if it already exists."""
        if v not in self._adj:
            self._adj[v] = set()
            self._rev += 1

    def add_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Add every vertex in ``vertices``."""
        for v in vertices:
            self.add_vertex(v)

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Raises
        ------
        InvalidInputError
            If ``u == v`` (self-loops are not allowed).
        """
        if u == v:
            raise InvalidInputError(f"self-loop on vertex {u!r} is not allowed")
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._num_edges += 1
            self._rev += 1

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Add every edge in ``edges`` (duplicates are ignored)."""
        for u, v in edges:
            self.add_edge(u, v)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}``; a no-op if the edge is absent."""
        if u in self._adj and v in self._adj[u]:
            self._adj[u].discard(v)
            self._adj[v].discard(u)
            self._num_edges -= 1
            self._rev += 1

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and all incident edges.

        Raises
        ------
        VertexNotFoundError
            If ``v`` is not in the graph.
        """
        if v not in self._adj:
            raise VertexNotFoundError(v)
        for u in self._adj[v]:
            self._adj[u].discard(v)
        self._num_edges -= len(self._adj[v])
        del self._adj[v]
        self._rev += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices (``n`` in the paper)."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges (``m`` in the paper)."""
        return self._num_edges

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertex ids."""
        return iter(self._adj)

    def vertex_set(self) -> FrozenSet[Vertex]:
        """All vertices as a frozenset."""
        return frozenset(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once."""
        seen: Set[Vertex] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: Vertex) -> Set[Vertex]:
        """The adjacency set of ``v`` (a live view — do not mutate).

        Raises
        ------
        VertexNotFoundError
            If ``v`` is not in the graph.
        """
        try:
            return self._adj[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def degree(self, v: Vertex) -> int:
        """Degree of ``v``."""
        return len(self.neighbors(v))

    def average_degree(self) -> float:
        """Average vertex degree (``d̂`` in Table 2); 0.0 for empty graphs."""
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def adjacency(self) -> Dict[Vertex, Set[Vertex]]:
        """The raw adjacency mapping (a live view — do not mutate)."""
        return self._adj

    # ------------------------------------------------------------------
    # derived graphs and traversal
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """A structural deep copy (vertex ids are shared, sets are not)."""
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        # A CSR view is an immutable snapshot of the structure at its
        # revision tag, so the copy can share it (tag and all) until either
        # side mutates.
        g._rev = self._rev
        g._csr = self._csr
        return g

    def subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        """The subgraph induced on ``keep`` (unknown ids are ignored)."""
        keep_set = {v for v in keep if v in self._adj}
        g = Graph()
        g._adj = {v: self._adj[v] & keep_set for v in keep_set}
        g._num_edges = sum(len(nbrs) for nbrs in g._adj.values()) // 2
        return g

    def component_of(
        self, source: Vertex, within: Optional[Iterable[Vertex]] = None
    ) -> FrozenSet[Vertex]:
        """Vertices connected to ``source``, optionally restricted to ``within``.

        Runs a BFS over ``self`` but only visits vertices in ``within`` when
        that restriction is given. This is the primitive behind ``G[T]`` /
        ``Gk[T]`` component extraction in the PCS algorithms. When a CSR
        view of this revision is already cached (and the ``object`` backend
        is not forced), the traversal runs on the flat arrays instead.

        Raises
        ------
        VertexNotFoundError
            If ``source`` is not in the graph (or not in ``within``).
        """
        view = self._csr
        if view is not None and view.revision == self._rev:
            from repro.graph.csr import active_backend

            if active_backend() != "object":
                return view.component_of(source, within)
        allowed = self._adj.keys() if within is None else set(within)
        if source not in self._adj or source not in allowed:
            raise VertexNotFoundError(source)
        seen: Set[Vertex] = {source}
        queue: deque = deque((source,))
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w in allowed and w not in seen:
                    seen.add(w)
                    queue.append(w)
        return frozenset(seen)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"
