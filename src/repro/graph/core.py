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
from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Optional, Set, Tuple

from repro.errors import InvalidInputError
from repro.graph.csr import csr_view
from repro.graph.graph import Graph

Vertex = Hashable
#: What the traversal functions read a graph through: ``adj[x]`` iterates
#: the neighbours of ``x`` (a ``Graph.adjacency()`` dict, or a view of one).
Adjacency = Mapping[Vertex, Iterable[Vertex]]

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


def insertion_risers(
    adj: Adjacency, core: Mapping[Vertex, int], u: Vertex, v: Vertex
) -> Tuple[int, Set[Vertex]]:
    """``(K, risen)`` for edge ``{u, v}`` already present in ``adj``.

    ``K = min(core[u], core[v])`` under the core numbers from *before* the
    insertion; ``risen`` are the vertices whose core number the edge lifts
    from ``K`` to ``K + 1``. ``core`` is not modified, and doubles as the
    membership test: a neighbour without an entry is outside the
    maintained subgraph, so a label's carriers restrict the traversal for
    free.

    The traversal algorithm of Sarıyüce et al.: rather than collect the
    whole core-``K`` region and peel it, walk it breadth-first from an
    endpoint and stop wherever a vertex provably stays behind. A core-``K``
    vertex can rise only if more than ``K`` of its neighbours lie in a
    higher core or are core-``K`` vertices that could rise themselves
    (those with more than ``K`` neighbours of core ≥ ``K``). ``budget``
    starts at that count, drops by one for each such neighbour found to
    stay behind, and a vertex whose budget is down to ``K`` stays behind
    too; the walk passes only through vertices still above ``K``.

    Whatever rises forms, with the higher cores, a component of the new
    ``(K + 1)``-core that holds the new edge (one that did not would have
    been in the old ``(K + 1)``-core already). So an endpoint of core ``K``
    rises with the rest or nothing does, and the walk ends as soon as one
    is found to stay — for most edges into a dense core, after that
    endpoint's two-hop neighbourhood.
    """
    level = min(core[u], core[v])
    candidate: Dict[Vertex, bool] = {}

    def can_rise(x: Vertex) -> bool:
        known = candidate.get(x)
        if known is None:
            slack = -level
            for y in adj[x]:
                if core.get(y, -1) >= level:
                    slack += 1
                    if slack > 0:
                        break
            known = candidate[x] = slack > 0
        return known

    def support(x: Vertex) -> int:
        count = 0
        for y in adj[x]:
            c = core.get(y, -1)
            if c > level or (c == level and can_rise(y)):
                count += 1
        return count

    endpoints = [w for w in (u, v) if core[w] == level]
    root = endpoints[0]
    budget: Dict[Vertex, int] = {root: support(root)}
    visited: Set[Vertex] = {root}
    stays: Set[Vertex] = set()
    queue: deque = deque((root,))
    while queue:
        x = queue.popleft()
        if budget[x] > level:
            for y in adj[x]:
                if y not in visited and core.get(y, -1) == level and can_rise(y):
                    visited.add(y)
                    # Neighbours that fell before y was reached have
                    # already been charged against it.
                    budget[y] = budget.get(y, 0) + support(y)
                    queue.append(y)
        elif x not in stays:
            stays.add(x)
            fallen = [x]
            while fallen:
                z = fallen.pop()
                for y in adj[z]:
                    if core.get(y, -1) == level:
                        left = budget[y] = budget.get(y, 0) - 1
                        if left == level and y in visited and y not in stays:
                            stays.add(y)
                            fallen.append(y)
            if not stays.isdisjoint(endpoints):
                return level, set()
    return level, visited - stays


def removal_fallers(
    adj: Adjacency, core: Mapping[Vertex, int], u: Vertex, v: Vertex
) -> Tuple[int, Set[Vertex]]:
    """``(K, fallen)`` for edge ``{u, v}`` already gone from ``adj``.

    The mirror of :func:`insertion_risers`: ``K = min(core[u], core[v])``
    under the core numbers from *before* the removal, and ``fallen`` are
    the vertices whose core number the lost edge drops from ``K`` to
    ``K − 1``. ``core`` is not modified and is the membership test.

    The old ``(K + 1)``-core did not hold the edge, so it stands; the
    ``K``-core loses exactly what a peel at degree ``K`` cascading from the
    endpoints removes. A core-``K`` vertex falls when fewer than ``K`` of
    its neighbours keep core ≥ ``K``. Each count is taken once, on first
    touch, against every neighbour of core ≥ ``K`` except the fallers
    already processed, and each processed faller then takes one off the
    counts of its core-``K`` neighbours — so a faller still queued when a
    count is taken is charged exactly once, when its turn comes.
    """
    level = min(core[u], core[v])
    processed: Set[Vertex] = set()
    count: Dict[Vertex, int] = {}

    def support(x: Vertex) -> int:
        return sum(
            1 for y in adj[x] if core.get(y, -1) >= level and y not in processed
        )

    fallen: Set[Vertex] = set()
    queue = []
    for w in (u, v):
        if core[w] == level:
            count[w] = support(w)
            if count[w] < level:
                fallen.add(w)
                queue.append(w)
    while queue:
        x = queue.pop()
        processed.add(x)
        for y in adj[x]:
            if core.get(y, -1) == level and y not in fallen:
                left = count[y] = count[y] - 1 if y in count else support(y)
                if left < level:
                    fallen.add(y)
                    queue.append(y)
    return level, fallen


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
