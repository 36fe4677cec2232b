"""Core decomposition and k-core extraction.

Implements the O(m) bucket-based peeling algorithm of Batagelj and Zaveršnik
(the paper's reference [27]) plus the subgraph-restricted variant that every
PCS feasibility check relies on: *given a candidate vertex set S, find the
connected component containing q of the maximal subgraph of G[S] whose
minimum degree is at least k* — written ``Gk[T]`` in the paper when S is the
set of vertices whose P-trees contain a subtree T.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Set

from repro.errors import InvalidInputError
from repro.graph.csr import csr_view
from repro.graph.graph import Graph

Vertex = Hashable

EMPTY: FrozenSet[Vertex] = frozenset()


def core_numbers(graph: Graph) -> Dict[Vertex, int]:
    """Core number of every vertex via O(m) bucket peeling.

    The core number of ``v`` is the largest ``k`` such that ``v`` belongs to
    the k-core of ``graph``. Under the ``csr`` backend (see
    :mod:`repro.graph.csr`) the peel runs on flat interned arrays; answers
    are identical to the ``object`` reference.

    Examples
    --------
    >>> g = Graph([(0, 1), (1, 2), (2, 0), (2, 3)])
    >>> core_numbers(g)[0], core_numbers(g)[3]
    (2, 1)
    """
    view = csr_view(graph)
    if view is not None:
        return view.core_numbers()
    degree = {v: graph.degree(v) for v in graph.vertices()}
    if not degree:
        return {}
    max_degree = max(degree.values())
    # bucket[d] holds vertices whose current degree is d
    buckets = [set() for _ in range(max_degree + 1)]
    for v, d in degree.items():
        buckets[d].add(v)
    core: Dict[Vertex, int] = {}
    adj = graph.adjacency()
    current = 0
    for _ in range(len(degree)):
        while not buckets[current]:
            current += 1
        v = buckets[current].pop()
        core[v] = current
        for u in adj[v]:
            du = degree[u]
            if u not in core and du > current:
                buckets[du].discard(u)
                degree[u] = du - 1
                buckets[du - 1].add(u)
        # peeling can only lower remaining degrees down to `current`,
        # never below, so `current` is monotonically non-decreasing —
        # but removing v may leave a lower non-empty bucket only at
        # exactly `current`, which the while-loop above re-finds.
    return core


def core_numbers_within(graph: Graph, vertices: Iterable[Vertex]) -> Dict[Vertex, int]:
    """Core numbers of the subgraph induced on ``vertices``.

    Used by the per-label CL-trees inside the CP-tree index, where the
    subgraph is "vertices whose P-tree contains label ℓ". Runs the same
    bucket peel as :func:`core_numbers` but with degrees restricted to the
    selection; vertices absent from the graph are ignored.
    """
    view = csr_view(graph)
    if view is not None:
        return view.core_numbers_within(vertices)
    adj = graph.adjacency()
    selection: Set[Vertex] = {v for v in vertices if v in adj}
    degree = {v: sum(1 for u in adj[v] if u in selection) for v in selection}
    if not degree:
        return {}
    max_degree = max(degree.values())
    buckets = [set() for _ in range(max_degree + 1)]
    for v, d in degree.items():
        buckets[d].add(v)
    core: Dict[Vertex, int] = {}
    current = 0
    for _ in range(len(degree)):
        while not buckets[current]:
            current += 1
        v = buckets[current].pop()
        core[v] = current
        for u in adj[v]:
            if u in selection and u not in core:
                du = degree[u]
                if du > current:
                    buckets[du].discard(u)
                    degree[u] = du - 1
                    buckets[du - 1].add(u)
    return core


def k_core_vertices(graph: Graph, k: int) -> FrozenSet[Vertex]:
    """Vertex set of the k-core of ``graph`` (may induce a disconnected graph)."""
    if k < 0:
        raise InvalidInputError(f"k must be non-negative, got {k}")
    core = core_numbers(graph)
    return frozenset(v for v, c in core.items() if c >= k)


def k_core_subgraph(graph: Graph, k: int) -> Graph:
    """The k-core of ``graph`` as an induced subgraph."""
    return graph.subgraph(k_core_vertices(graph, k))


def connected_k_core(graph: Graph, q: Vertex, k: int) -> FrozenSet[Vertex]:
    """The k-ĉore containing ``q``: the connected component of the k-core.

    Returns the empty frozenset when ``q`` does not survive k-core peeling.
    """
    vertices = k_core_vertices(graph, k)
    if q not in vertices:
        return EMPTY
    return graph.component_of(q, within=vertices)


def k_core_within(
    graph: Graph,
    candidates: Iterable[Vertex],
    k: int,
    q: Optional[Vertex] = None,
) -> FrozenSet[Vertex]:
    """Peel ``G[candidates]`` down to minimum degree ``k``; optionally take q's component.

    This is the feasibility primitive of the whole reproduction: the paper's
    ``Gk[T]`` equals ``k_core_within(G, {v : T ⊆ T(v)}, k, q)``. Candidate
    vertices absent from ``graph`` are ignored. When ``q`` is given, the
    connected component containing ``q`` is returned (empty if ``q`` was
    peeled away or is not a candidate); otherwise the full peeled vertex set
    is returned.

    The peel runs in O(sum of candidate degrees) time.
    """
    if k < 0:
        raise InvalidInputError(f"k must be non-negative, got {k}")
    view = csr_view(graph)
    if view is not None:
        return view.k_core_within(candidates, k, q)
    adj = graph.adjacency()
    alive: Set[Vertex] = {v for v in candidates if v in adj}
    if q is not None and q not in alive:
        return EMPTY
    # Degrees inside the induced subgraph.
    degree = {v: sum(1 for u in adj[v] if u in alive) for v in alive}
    queue: deque = deque(v for v, d in degree.items() if d < k)
    in_queue = set(queue)
    while queue:
        v = queue.popleft()
        if v not in alive:
            continue
        alive.discard(v)
        for u in adj[v]:
            if u in alive:
                degree[u] -= 1
                if degree[u] < k and u not in in_queue:
                    in_queue.add(u)
                    queue.append(u)
    if q is None:
        return frozenset(alive)
    if q not in alive:
        return EMPTY
    # BFS within the surviving set.
    seen: Set[Vertex] = {q}
    frontier: deque = deque((q,))
    while frontier:
        u = frontier.popleft()
        for w in adj[u]:
            if w in alive and w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def degeneracy(graph: Graph) -> int:
    """The degeneracy of the graph: the largest k with a non-empty k-core."""
    core = core_numbers(graph)
    return max(core.values(), default=0)


def minimum_degree(graph: Graph, vertices: Optional[Iterable[Vertex]] = None) -> int:
    """Minimum degree of ``graph`` restricted to ``vertices`` (or all of it).

    Returns 0 for an empty vertex selection.
    """
    adj = graph.adjacency()
    if vertices is None:
        if not adj:
            return 0
        return min(len(nbrs) for nbrs in adj.values())
    selection = {v for v in vertices if v in adj}
    if not selection:
        return 0
    return min(sum(1 for u in adj[v] if u in selection) for v in selection)
