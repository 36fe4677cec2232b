"""Flat CSR backend for the hot graph kernels.

The object :class:`~repro.graph.graph.Graph` keeps adjacency as
``dict[vertex, set]`` — ideal for mutation and for arbitrary hashable
vertex ids, but every peel or BFS then pays a hash lookup per edge visit.
This module adds a second substrate: vertex ids are *interned* to dense
integers once, adjacency is laid out in compressed-sparse-row form inside
:mod:`array` buffers (``indptr``/``indices``), and the dominant kernels
— core decomposition (:func:`peel`, over the whole graph or over the rows
of an induced subgraph, :meth:`CSRGraph.induced_rows`), the ``Gk[T]``
peel+BFS feasibility primitive and candidate component extraction — run
over flat integer arrays, converting back to the caller's vertex objects
only at the boundary. Answers are therefore
*identical* to the object kernels (the differential suite asserts it);
only the walk underneath changes.

There is one serving backend and one reference:

``csr`` (always, unless overridden)
    Pure-stdlib CSR: ``array``/``bytearray``/``memoryview`` only.
``object`` (only inside :func:`backend_override`)
    Never build cached CSR views; every query kernel takes the
    historical dict/set path. This is the reference the differential
    tests, the end-to-end oracle and the CSR speed-up benchmark compare
    against — not a deployment option. (The CL-tree build has no dict
    path: under this backend it lays out a private, uncached CSR.)

A :class:`CSRGraph` is an immutable *snapshot* of one graph revision and
carries that revision as a tag. :func:`csr_view` caches it on
``Graph._csr`` and serves it only while the tag equals the graph's
current revision; every Graph mutator bumps the revision, so a stale view
— including one a reader finished building after a writer committed — is
never observable through the dispatch helpers in :mod:`repro.graph.core`.
"""

from __future__ import annotations

from array import array
from collections import deque
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import InvalidInputError, VertexNotFoundError

if TYPE_CHECKING:  # pragma: no cover - import cycle break, typing only
    from repro.graph.graph import Graph

Vertex = Hashable

__all__ = [
    "BACKENDS",
    "CSRGraph",
    "active_backend",
    "backend_override",
    "csr_view",
    "peel",
]

#: The reference backend and the serving backend.
BACKENDS = ("object", "csr")

EMPTY: FrozenSet[Vertex] = frozenset()

#: Candidate selections covering at least 1/``_DENSE_RATIO`` of the graph
#: peel over O(n) flat arrays; smaller ones use int-keyed dicts/sets so a
#: tiny query on a million-vertex graph never pays an O(n) allocation.
_DENSE_RATIO = 4

_override: Optional[str] = None


def active_backend() -> str:
    """The backend serving kernels right now (``csr`` unless overridden)."""
    return _override or "csr"


@contextmanager
def backend_override(name: Optional[str]) -> Iterator[str]:
    """Temporarily force a backend, process-wide — the differential-test seam.

    ``None`` lifts an enclosing override. Yields the backend now active.

    Raises
    ------
    InvalidInputError
        If ``name`` is outside :data:`BACKENDS`.
    """
    global _override
    if name is not None and name not in BACKENDS:
        raise InvalidInputError(
            f"unknown backend {name!r}; choose one of {', '.join(BACKENDS)}"
        )
    previous = _override
    _override = name
    try:
        yield active_backend()
    finally:
        _override = previous


class CSRGraph:
    """An immutable CSR snapshot of one graph revision.

    Attributes
    ----------
    n:
        Vertex count; interned ids are exactly ``range(n)``.
    indptr:
        ``array('Q')`` of length ``n + 1``; vertex ``i``'s neighbours live
        in ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        ``array('I')`` of length ``2m`` holding interned neighbour ids.
    ids:
        Interned id → original vertex object (the intern table).
    index_of:
        Original vertex object → interned id (inverse of ``ids``).
    revision:
        The structural revision of the graph this snapshot was taken at
        (``Graph._rev``; 0 for a graph no mutator has touched yet).
    """

    __slots__ = ("n", "indptr", "indices", "ids", "index_of", "revision")

    def __init__(
        self,
        ids: List[Vertex],
        index_of: Dict[Vertex, int],
        indptr: array,
        indices: array,
        revision: int = 0,
    ) -> None:
        self.ids = ids
        self.index_of = index_of
        self.indptr = indptr
        self.indices = indices
        self.n = len(ids)
        self.revision = revision

    @property
    def num_edges(self) -> int:
        """Undirected edge count (each edge is stored twice)."""
        return len(self.indices) // 2

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: "Graph") -> "CSRGraph":
        """Intern ``graph``'s vertices and lay its adjacency out in CSR."""
        # Read before interning: an edit that lands during the walk bumps
        # the graph past this tag, and the torn snapshot is never served.
        revision = getattr(graph, "_rev", 0)
        adj = graph.adjacency()
        ids = list(adj)
        index_of = {v: i for i, v in enumerate(ids)}
        intern = index_of.__getitem__
        indptr = array("Q", [0])
        indices = array("I")
        extend = indices.extend
        append = indptr.append
        for v in ids:
            extend(map(intern, adj[v]))
            append(len(indices))
        return cls(ids, index_of, indptr, indices, revision)

    @classmethod
    def from_sorted_edges(cls, order: Sequence[Vertex], flat: Sequence[int]) -> "CSRGraph":
        """Build from an intern table plus a flat ``(u, v)`` endpoint array.

        ``order`` maps interned id → vertex (position is the id) and
        ``flat`` holds ``2m`` interned endpoints, one edge per consecutive
        pair — exactly the tables :mod:`repro.storage.snapshot` decodes,
        which makes boot-from-snapshot nearly copy-free: no dict-of-sets
        detour, the edge array scatters straight into the CSR buffers.
        """
        ids = list(order)
        n = len(ids)
        index_of = {v: i for i, v in enumerate(ids)}
        degree = [0] * n
        for x in flat:
            degree[x] += 1
        indptr = array("Q", bytes(8 * (n + 1)))
        total = 0
        for i, d in enumerate(degree):
            total += d
            indptr[i + 1] = total
        cursor = list(indptr[:n]) if n else []
        indices = array("I", bytes(4 * total))
        pairs = iter(flat)
        for u in pairs:
            v = next(pairs)
            cu = cursor[u]
            indices[cu] = v
            cursor[u] = cu + 1
            cv = cursor[v]
            indices[cv] = u
            cursor[v] = cv + 1
        return cls(ids, index_of, indptr, indices)

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def core_numbers(self) -> Dict[Vertex, int]:
        """Whole-graph core numbers: :func:`peel` over the CSR rows themselves."""
        return dict(zip(self.ids, peel(self.indptr, self.indices)[0]))

    def induced_rows(
        self, vertices: Iterable[Vertex], mark: Optional[List[int]] = None
    ) -> Tuple[List[Vertex], array, array]:
        """The subgraph induced on ``vertices``, as CSR rows of its own.

        Returns ``(members, offsets, rows)``: ``members`` are the graph's
        selected vertices, each once, in first-seen order, and their
        position is their local id; local vertex ``i``'s neighbours inside
        the selection are ``rows[offsets[i]:offsets[i + 1]]``, as local
        ids. Vertices the graph lacks are dropped. ``mark`` is a list of
        ``n`` times ``-1``, scratch that a caller restricting many
        selections allocates once; it is all ``-1`` again on return.
        """
        if mark is None:
            mark = [-1] * self.n
        index_of = self.index_of
        interned: List[int] = []
        for v in vertices:
            i = index_of.get(v)
            if i is not None and mark[i] < 0:
                mark[i] = len(interned)
                interned.append(i)
        members = list(map(self.ids.__getitem__, interned))
        indptr, indices = self.indptr, self.indices
        local = mark.__getitem__
        # A list takes the filtered ids faster than an array does; the
        # array it becomes holds them in half the memory.
        rows: List[int] = []
        offsets = array("i", [0])
        close = offsets.append
        for i in interned:
            rows += filter(_NON_NEGATIVE, map(local, indices[indptr[i] : indptr[i + 1]]))
            close(len(rows))
        for i in interned:
            mark[i] = -1
        return members, offsets, array("i", rows)

    def k_core_within(
        self,
        candidates: Iterable[Vertex],
        k: int,
        q: Optional[Vertex] = None,
    ) -> FrozenSet[Vertex]:
        """Peel ``G[candidates]`` to min-degree ``k``; optionally q's component.

        Semantics match :func:`repro.graph.core.k_core_within` exactly,
        including the treatment of unknown candidates and of a peeled-away
        ``q``. Dense selections use flat ``bytearray``/list scratch; small
        ones stay on int sets.
        """
        if k < 0:
            raise InvalidInputError(f"k must be non-negative, got {k}")
        n = self.n
        index_of = self.index_of
        cand: List[int] = []
        seen: Set[int] = set()
        for v in candidates:
            i = index_of.get(v)
            if i is not None and i not in seen:
                seen.add(i)
                cand.append(i)
        qi: Optional[int] = None
        if q is not None:
            qi = index_of.get(q)
            if qi is None or qi not in seen:
                return EMPTY
        if len(cand) * _DENSE_RATIO >= n:
            return self._k_core_within_dense(cand, k, qi, q is not None)
        return self._k_core_within_sparse(seen, k, qi, q is not None)

    def _k_core_within_dense(
        self, cand: List[int], k: int, qi: Optional[int], component: bool
    ) -> FrozenSet[Vertex]:
        """Flat-array peel for selections comparable to the whole graph."""
        n = self.n
        indptr, indices, ids = self.indptr, self.indices, self.ids
        alive = bytearray(n)
        for v in cand:
            alive[v] = 1
        if len(cand) == n:
            degree = [indptr[i + 1] - indptr[i] for i in range(n)]
        else:
            degree = [0] * n
            for v in cand:
                d = 0
                for u in indices[indptr[v] : indptr[v + 1]]:
                    if alive[u]:
                        d += 1
                degree[v] = d
        queue: deque = deque(v for v in cand if degree[v] < k)
        pending = bytearray(n)
        for v in queue:
            pending[v] = 1
        while queue:
            v = queue.popleft()
            if not alive[v]:
                continue
            alive[v] = 0
            for u in indices[indptr[v] : indptr[v + 1]]:
                if alive[u]:
                    du = degree[u] - 1
                    degree[u] = du
                    if du < k and not pending[u]:
                        pending[u] = 1
                        queue.append(u)
        lookup = ids.__getitem__
        if not component:
            return frozenset(map(lookup, filter(alive.__getitem__, cand)))
        if not alive[qi]:
            return EMPTY
        reached = bytearray(n)
        reached[qi] = 1
        out = [qi]
        frontier: deque = deque((qi,))
        while frontier:
            v = frontier.popleft()
            for u in indices[indptr[v] : indptr[v + 1]]:
                if alive[u] and not reached[u]:
                    reached[u] = 1
                    out.append(u)
                    frontier.append(u)
        return frozenset(map(lookup, out))

    def _k_core_within_sparse(
        self, alive: Set[int], k: int, qi: Optional[int], component: bool
    ) -> FrozenSet[Vertex]:
        """Int-set peel for selections much smaller than the graph."""
        indptr, indices, ids = self.indptr, self.indices, self.ids
        degree: Dict[int, int] = {}
        for v in alive:
            d = 0
            for u in indices[indptr[v] : indptr[v + 1]]:
                if u in alive:
                    d += 1
            degree[v] = d
        queue: deque = deque(v for v, d in degree.items() if d < k)
        pending: Set[int] = set(queue)
        while queue:
            v = queue.popleft()
            if v not in alive:
                continue
            alive.discard(v)
            for u in indices[indptr[v] : indptr[v + 1]]:
                if u in alive:
                    du = degree[u] - 1
                    degree[u] = du
                    if du < k and u not in pending:
                        pending.add(u)
                        queue.append(u)
        if not component:
            return frozenset(ids[v] for v in alive)
        if qi not in alive:
            return EMPTY
        reached: Set[int] = {qi}
        frontier: deque = deque((qi,))
        while frontier:
            v = frontier.popleft()
            for u in indices[indptr[v] : indptr[v + 1]]:
                if u in alive and u not in reached:
                    reached.add(u)
                    frontier.append(u)
        return frozenset(ids[v] for v in reached)

    def component_of(
        self, source: Vertex, within: Optional[Iterable[Vertex]] = None
    ) -> FrozenSet[Vertex]:
        """Connected component of ``source``, optionally inside ``within``.

        Raises
        ------
        VertexNotFoundError
            If ``source`` is not interned (or excluded by ``within``) —
            the same contract as :meth:`Graph.component_of`.
        """
        index_of = self.index_of
        indptr, indices, ids = self.indptr, self.indices, self.ids
        si = index_of.get(source)
        if within is None:
            if si is None:
                raise VertexNotFoundError(source)
            reached = bytearray(self.n)
            reached[si] = 1
            out = [si]
            frontier: deque = deque((si,))
            while frontier:
                v = frontier.popleft()
                for u in indices[indptr[v] : indptr[v + 1]]:
                    if not reached[u]:
                        reached[u] = 1
                        out.append(u)
                        frontier.append(u)
            return frozenset(ids[v] for v in out)
        allowed: Set[int] = set()
        for v in within:
            i = index_of.get(v)
            if i is not None:
                allowed.add(i)
        if si is None or si not in allowed:
            raise VertexNotFoundError(source)
        seen: Set[int] = {si}
        frontier = deque((si,))
        while frontier:
            v = frontier.popleft()
            for u in indices[indptr[v] : indptr[v + 1]]:
                if u in allowed and u not in seen:
                    seen.add(u)
                    frontier.append(u)
        return frozenset(ids[v] for v in seen)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self.n}, m={self.num_edges})"


#: ``_NON_NEGATIVE(x)`` is ``0 <= x``: keeps the marked ids of a row.
_NON_NEGATIVE = (0).__le__


def peel(offsets: Sequence[int], rows: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Core decomposition of a graph given as CSR rows (Batagelj–Zaveršnik).

    Vertex ``i``'s neighbours are ``rows[offsets[i]:offsets[i + 1]]``.
    Returns ``(core, order)``: ``core[i]`` is vertex ``i``'s core number
    and ``order`` lists the vertices in the order the peel removed them,
    so core numbers never decrease along it. Vertices sit in one
    permutation sorted into degree bins: one flat pass over ``rows``, with
    an O(1) swap per degree decrement.
    """
    n = len(offsets) - 1
    if n <= 0:
        return [], []
    core = [offsets[i + 1] - offsets[i] for i in range(n)]  # peeled down in place
    max_degree = max(core)
    counts = [0] * (max_degree + 1)
    for d in core:
        counts[d] += 1
    bin_start = [0] * (max_degree + 1)
    total = 0
    for d in range(max_degree + 1):
        bin_start[d] = total
        total += counts[d]
    fill = bin_start[:]
    pos = [0] * n
    vert = [0] * n
    for v in range(n):
        p = fill[core[v]]
        pos[v] = p
        vert[p] = v
        fill[core[v]] = p + 1
    for i in range(n):
        v = vert[i]
        cv = core[v]
        for u in rows[offsets[v] : offsets[v + 1]]:
            cu = core[u]
            if cu > cv:
                # swap u to the front of its bin, then shrink the bin
                pu = pos[u]
                pw = bin_start[cu]
                w = vert[pw]
                if u != w:
                    vert[pu] = w
                    pos[w] = pu
                    vert[pw] = u
                    pos[u] = pw
                bin_start[cu] = pw + 1
                core[u] = cu - 1
    return core, vert


def csr_view(graph: "Graph", build: bool = True) -> Optional[CSRGraph]:
    """The graph's cached CSR snapshot under the active backend.

    Returns ``None`` when the ``object`` backend is active (callers then
    take the historical dict/set path). Otherwise returns the cached view
    when its revision tag is the graph's current revision, building and
    attaching a new one first when ``build`` is true. The build runs
    outside any lock; a writer that commits meanwhile leaves the freshly
    attached view behind the graph's revision, so it is rebuilt, never
    served. Graph-likes without a ``_csr`` slot get an uncached one-shot
    view.
    """
    if active_backend() == "object":
        return None
    try:
        view, revision = graph._csr, graph._rev
    except AttributeError:  # pragma: no cover - foreign graph-likes
        return CSRGraph.from_graph(graph) if build else None
    if view is not None and view.revision == revision:
        return view
    if not build:
        return None
    view = CSRGraph.from_graph(graph)
    graph._csr = view
    return view
