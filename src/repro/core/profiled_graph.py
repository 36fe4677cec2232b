"""The profiled graph: topology + per-vertex P-trees + taxonomy.

This is the central data object of the reproduction (paper §3.1): an
undirected graph whose every vertex carries an ancestor-closed label set
anchored in one taxonomy (the GP-tree). It owns the lazily built CP-tree
index and provides the sampling operations the scalability experiments need
(Fig. 13 / Fig. 14 e–p): vertex sampling, per-vertex P-tree sampling and
GP-tree restriction.

Mutation is first-class: :meth:`ProfiledGraph.add_edge`,
:meth:`~ProfiledGraph.remove_edge`, :meth:`~ProfiledGraph.add_vertex`,
:meth:`~ProfiledGraph.remove_vertex` and :meth:`~ProfiledGraph.set_profile`
keep the topology, the label mapping and the P-tree cache consistent in one
call, bump a monotonic :attr:`~ProfiledGraph.version` counter (the epoch
that result caches key their staleness checks on), and keep a built
CP-tree current incrementally (:mod:`repro.index.maintenance`): every edit
is patched into the per-label CL-trees it touches as it lands, instead of
rebuilding the whole O(|P| · m) index. Every mutator also holds
:attr:`~ProfiledGraph.write_seq` odd for its whole run, so an optimistic
reader that overlapped any part of an edit sees the sequence move (the
version alone cannot tell it: the adjacency changes before the bump).
Mutating ``pg.graph`` directly bypasses all of this and is unsupported
once an index or engine is attached.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterator, Mapping, Optional, Union

from repro.errors import InvalidInputError, VertexNotFoundError
from repro.graph.graph import Graph
from repro.index.cptree import CPTree
from repro.index.maintenance import UpdateJournal, absorb_edge, absorb_profile
from repro.ptree.ptree import PTree
from repro.ptree.taxonomy import Taxonomy

Vertex = Hashable
NodeSet = FrozenSet[int]

RandomLike = Union[int, random.Random, None]


def _mutator(method):
    """Hold ``write_seq`` odd while ``method`` runs (one window per call)."""

    @functools.wraps(method)
    def windowed(self, *args, **kwargs):
        self._write_seq += 1
        try:
            return method(self, *args, **kwargs)
        finally:
            self._write_seq += 1

    return windowed


def _rng(seed: RandomLike) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


@dataclass(frozen=True)
class DatasetStats:
    """The Table 2 statistics of a profiled graph."""

    num_vertices: int
    num_edges: int
    average_degree: float
    average_ptree_size: float
    gp_tree_size: int

    def row(self) -> tuple:
        """(n, m, d̂, P̂, |GP-tree|) formatted as in Table 2."""
        return (
            self.num_vertices,
            self.num_edges,
            round(self.average_degree, 2),
            round(self.average_ptree_size, 2),
            self.gp_tree_size,
        )


class ProfiledGraph:
    """A graph whose vertices carry P-trees from a shared taxonomy.

    Parameters
    ----------
    graph:
        The topology. Vertices without an entry in ``profiles`` get an empty
        P-tree.
    taxonomy:
        The GP-tree.
    profiles:
        Mapping vertex → P-tree, label-name iterable, or node-id iterable.
        Non-closed node sets are closed over ancestors automatically.
    validate:
        Verify profile node ids against the taxonomy (default True).
    """

    __slots__ = (
        "graph",
        "taxonomy",
        "_labels",
        "_index",
        "_ptree_cache",
        "_version",
        "_write_seq",
        "_taps",
        "_maintenance_seconds",
    )

    def __init__(
        self,
        graph: Graph,
        taxonomy: Taxonomy,
        profiles: Mapping[Vertex, object],
        validate: bool = True,
    ) -> None:
        self.graph = graph
        self.taxonomy = taxonomy
        labels: Dict[Vertex, NodeSet] = {}
        for v, profile in profiles.items():
            if v not in graph:
                raise VertexNotFoundError(v)
            labels[v] = self._coerce_profile(profile, validate)
        empty: NodeSet = frozenset()
        for v in graph.vertices():
            if v not in labels:
                labels[v] = empty
        self._labels = labels
        self._index: Optional[CPTree] = None
        self._ptree_cache: Dict[Vertex, PTree] = {}
        self._version = 0
        self._write_seq = 0
        self._taps: list = []
        self._maintenance_seconds = 0.0

    @classmethod
    def from_labels(
        cls, graph: Graph, taxonomy: Taxonomy, labels: Dict[Vertex, NodeSet],
        version: int = 0,
    ) -> "ProfiledGraph":
        """A profiled graph over label sets that need no coercion.

        ``labels`` must map every vertex of ``graph`` to an ancestor-closed
        frozenset of ``taxonomy`` node ids, and is adopted as is (snapshot
        decode checks each distinct set once, then builds through here).
        The graph starts at ``version``, without an index.
        """
        pg = cls(Graph(), taxonomy, {})
        pg.graph, pg._labels, pg._version = graph, labels, version
        return pg

    def _coerce_profile(self, profile: object, validate: bool) -> NodeSet:
        if isinstance(profile, PTree):
            if profile.taxonomy is not self.taxonomy:
                raise InvalidInputError("profile P-tree anchored to a different taxonomy")
            return profile.nodes
        nodes = []
        for item in profile:  # type: ignore[union-attr]
            if isinstance(item, str):
                nodes.append(self.taxonomy.id_of(item))
            else:
                nodes.append(item)
        closed = self.taxonomy.closure(nodes) if nodes else frozenset()
        if validate and nodes and not self.taxonomy.is_ancestor_closed(closed):
            raise InvalidInputError("profile closure failed — invalid node ids")
        return closed

    # ------------------------------------------------------------------
    # profile access
    # ------------------------------------------------------------------
    def labels(self, v: Vertex) -> NodeSet:
        """T(v) as an ancestor-closed frozenset of taxonomy node ids."""
        try:
            return self._labels[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def ptree(self, v: Vertex) -> PTree:
        """T(v) as a :class:`PTree` (cached)."""
        cached = self._ptree_cache.get(v)
        if cached is None:
            cached = PTree(self.taxonomy, self.labels(v), _validated=True)
            self._ptree_cache[v] = cached
        return cached

    def all_labels(self) -> Mapping[Vertex, NodeSet]:
        """The full vertex → label-set mapping (live view).

        Do not mutate: writes through this view bypass versioning and index
        maintenance. Use :meth:`set_profile` and friends; if legacy code
        must write here anyway, it must call :meth:`mark_index_stale`
        afterwards, which drops the index.
        """
        return self._labels

    def vertices(self) -> Iterator[Vertex]:
        return self.graph.vertices()

    def __contains__(self, v: Vertex) -> bool:
        return v in self.graph

    # ------------------------------------------------------------------
    # mutation (versioned; keeps labels, P-tree cache and index
    # consistent — the supported way to edit a profiled graph in place)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic mutation counter: bumped once per effective edit.

        Caches that hold results derived from this graph store the version
        they were computed against and compare on lookup — an O(1) epoch
        check replacing any eager purge.
        """
        return self._version

    @property
    def maintenance_seconds(self) -> float:
        """Total time spent patching the index as edits land (not full builds)."""
        return self._maintenance_seconds

    @property
    def write_seq(self) -> int:
        """Write sequence: odd while a mutator runs, even between mutators.

        A reader that sees the same even value before and after a
        computation overlapped no edit, so the :attr:`version` it read at
        the start describes what it computed.
        """
        return self._write_seq

    def _bump(self) -> None:
        self._version += 1

    def _absorb(self, absorb, *edit, **options) -> None:
        """Let a built index absorb the edit that just landed (after the bump)."""
        if self._index is None:
            return
        start = time.perf_counter()
        absorb(self._index, self.graph, *edit, **options)
        self._maintenance_seconds += time.perf_counter() - start

    def attach_journal(self, journal: UpdateJournal) -> UpdateJournal:
        """Attach a tap journal that records every subsequent mutation.

        A tap records whether or not an index is built; the attacher owns
        its lifecycle and must :meth:`detach_journal` it. Returns the
        journal for chaining.
        """
        self._taps.append(journal)
        return journal

    def detach_journal(self, journal: UpdateJournal) -> None:
        """Detach a tap journal previously passed to :meth:`attach_journal`."""
        try:
            self._taps.remove(journal)
        except ValueError:
            pass  # already detached; idempotent by design

    @_mutator
    def add_vertex(self, v: Vertex, profile: object = (), validate: bool = True) -> bool:
        """Add vertex ``v`` with an optional profile; False if it exists.

        The profile accepts the same forms as the constructor: a P-tree,
        label names, or node ids (closed over ancestors automatically).
        """
        if v in self.graph:
            return False
        closed = self._coerce_profile(profile, validate)
        self.graph.add_vertex(v)
        self._labels[v] = closed
        for tap in self._taps:
            tap.record_vertex_added(v, closed)
        self._bump()
        self._absorb(absorb_profile, v, frozenset(), closed)
        return True

    @_mutator
    def remove_vertex(self, v: Vertex) -> bool:
        """Remove ``v``, its incident edges, its profile and cached P-tree.

        Raises
        ------
        VertexNotFoundError
            If ``v`` is not in the graph.
        """
        if v not in self.graph:
            raise VertexNotFoundError(v)
        labels = self._labels.pop(v, frozenset())
        neighbours = set(self.graph.neighbors(v))
        self.graph.remove_vertex(v)
        self._ptree_cache.pop(v, None)
        for tap in self._taps:
            # Removing v only perturbs the subgraphs of labels v carries:
            # a lost edge {v, w} lies inside label t's subgraph only when
            # both endpoints carry t, and t ∈ T(v) then.
            tap.record_vertex_removed(v, labels)
        self._bump()
        self._absorb(absorb_profile, v, labels, frozenset(), neighbours)
        return True

    @_mutator
    def add_edge(self, u: Vertex, v: Vertex) -> bool:
        """Insert edge ``{u, v}``; unknown endpoints get empty profiles.

        Returns False (and bumps nothing) when the edge already exists.
        """
        if self.graph.has_edge(u, v):
            return False
        if u == v:
            raise InvalidInputError(f"self-loop on vertex {u!r} is not allowed")
        empty: NodeSet = frozenset()
        created = [w for w in (u, v) if w not in self.graph]
        for w in created:
            self.graph.add_vertex(w)
            self._labels[w] = empty
            for tap in self._taps:
                tap.record_vertex_added(w, empty)
        self.graph.add_edge(u, v)
        labels_u, labels_v = self._labels[u], self._labels[v]
        for tap in self._taps:
            tap.record_edge(labels_u, labels_v)
        self._bump()
        for w in created:
            self._absorb(absorb_profile, w, empty, empty)
        self._absorb(absorb_edge, u, v, labels_u & labels_v)
        return True

    @_mutator
    def remove_edge(self, u: Vertex, v: Vertex) -> bool:
        """Remove edge ``{u, v}``; False (no version bump) if absent."""
        if not self.graph.has_edge(u, v):
            return False
        self.graph.remove_edge(u, v)
        labels_u, labels_v = self._labels[u], self._labels[v]
        for tap in self._taps:
            tap.record_edge(labels_u, labels_v)
        self._bump()
        self._absorb(absorb_edge, u, v, labels_u & labels_v, removed=True)
        return True

    @_mutator
    def mark_index_stale(self) -> None:
        """Drop the index; the next :meth:`index` access builds from scratch.

        The escape hatch for changes the versioned API cannot express —
        wholesale edits through the :meth:`all_labels` live view, or
        external mutation of :attr:`graph`. Bumps the version so result
        caches invalidate too.
        """
        self._index = None
        for tap in self._taps:
            tap.mark_all()
        self._bump()

    @_mutator
    def set_profile(self, v: Vertex, profile: object, validate: bool = True) -> bool:
        """Replace T(v); False (no version bump) when unchanged.

        Raises
        ------
        VertexNotFoundError
            If ``v`` is not in the graph.
        """
        if v not in self.graph:
            raise VertexNotFoundError(v)
        new = self._coerce_profile(profile, validate)
        old = self._labels[v]
        if new == old:
            return False
        self._labels[v] = new
        self._ptree_cache.pop(v, None)
        for tap in self._taps:
            tap.record_profile_change(v, old, new)
        self._bump()
        self._absorb(absorb_profile, v, old, new)
        return True

    def vertices_with_subtree(self, nodes: NodeSet) -> FrozenSet[Vertex]:
        """All vertices whose P-tree contains the subtree ``nodes`` (naive scan).

        The index-free primitive of the ``basic`` algorithm; O(n) subset
        checks.
        """
        if not nodes:
            return self.graph.vertex_set()
        return frozenset(v for v, lab in self._labels.items() if nodes <= lab)

    # ------------------------------------------------------------------
    # statistics (Table 2)
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def average_ptree_size(self) -> float:
        """P̂: the mean number of labels per vertex P-tree."""
        if not self._labels:
            return 0.0
        return sum(len(s) for s in self._labels.values()) / len(self._labels)

    def stats(self) -> DatasetStats:
        """The Table 2 row of this dataset."""
        return DatasetStats(
            num_vertices=self.num_vertices,
            num_edges=self.num_edges,
            average_degree=self.graph.average_degree(),
            average_ptree_size=self.average_ptree_size(),
            gp_tree_size=self.taxonomy.num_nodes,
        )

    # ------------------------------------------------------------------
    # index
    # ------------------------------------------------------------------
    def index(self, rebuild: bool = False) -> CPTree:
        """The CP-tree index, built on first use and kept fresh across edits.

        Edits made through the versioned API are patched into the index as
        they land, so a built index is always current. Pass
        ``rebuild=True`` to force a from-scratch build.
        """
        if self._index is None or rebuild:
            self._index = CPTree(self.graph, self._labels, self.taxonomy, validate=False)
        return self._index

    def adopt_index(self, index: CPTree) -> CPTree:
        """Install an externally built CP-tree as this graph's index.

        Used by snapshot decode (:mod:`repro.storage.snapshot`), which
        reassembles the index from its stored per-label arrays. The caller
        asserts the index describes the *current* topology and labels.
        Returns the installed index.
        """
        if not isinstance(index, CPTree):
            raise InvalidInputError(
                f"adopt_index needs a CPTree, got {type(index).__name__}"
            )
        self._index = index
        return index

    def has_index(self) -> bool:
        return self._index is not None

    def clear_index(self) -> None:
        """Drop the cached CP-tree so the next :meth:`index` call rebuilds.

        Used by benchmarks that must charge index construction to a
        specific phase (e.g. the engine's warm-up) instead of inheriting
        whatever a previous measurement left behind.
        """
        self._index = None

    # ------------------------------------------------------------------
    # sampling (scalability experiments)
    # ------------------------------------------------------------------
    def sample_vertices(self, fraction: float, seed: RandomLike = None) -> "ProfiledGraph":
        """Keep a random ``fraction`` of the vertices (Fig. 13(a), 14(e–h)).

        P-trees of surviving vertices are kept intact, as in the paper
        ("vertices' P-trees are fully considered").
        """
        if not 0.0 < fraction <= 1.0:
            raise InvalidInputError(f"fraction must be in (0, 1], got {fraction}")
        if fraction == 1.0:
            return self
        rng = _rng(seed)
        vertices = sorted(self._labels, key=repr)
        keep = rng.sample(vertices, max(1, int(len(vertices) * fraction)))
        sub = self.graph.subgraph(keep)
        profiles = {v: self._labels[v] for v in keep}
        return ProfiledGraph(sub, self.taxonomy, profiles, validate=False)

    def sample_ptrees(self, fraction: float, seed: RandomLike = None) -> "ProfiledGraph":
        """Keep ~``fraction`` of each vertex's P-tree nodes (Fig. 13(b), 14(i–l)).

        Sampled node sets are ancestor-closed again, matching "randomly select
        20%…80% of its P-tree nodes to generate the corresponding subtree".
        """
        if not 0.0 < fraction <= 1.0:
            raise InvalidInputError(f"fraction must be in (0, 1], got {fraction}")
        if fraction == 1.0:
            return self
        rng = _rng(seed)
        tax = self.taxonomy
        profiles: Dict[Vertex, NodeSet] = {}
        for v, nodes in self._labels.items():
            if not nodes:
                profiles[v] = nodes
                continue
            ordered = sorted(nodes)
            take = max(1, int(len(ordered) * fraction))
            sampled = rng.sample(ordered, take)
            profiles[v] = tax.closure(sampled)
        return ProfiledGraph(self.graph, tax, profiles, validate=False)

    def restrict_gp_tree(self, fraction: float, seed: RandomLike = None) -> "ProfiledGraph":
        """Keep ~``fraction`` of the GP-tree (Fig. 13(c), 14(m–p)).

        Samples taxonomy nodes, closes them over ancestors, builds the
        restricted taxonomy and re-anchors every P-tree to it (labels outside
        the restriction are dropped).
        """
        if not 0.0 < fraction <= 1.0:
            raise InvalidInputError(f"fraction must be in (0, 1], got {fraction}")
        if fraction == 1.0:
            return self
        rng = _rng(seed)
        tax = self.taxonomy
        all_nodes = list(range(tax.num_nodes))
        take = max(1, int(len(all_nodes) * fraction))
        sampled = rng.sample(all_nodes, take)
        new_tax, mapping = tax.restrict(sampled)
        kept = set(mapping)
        profiles: Dict[Vertex, NodeSet] = {}
        for v, nodes in self._labels.items():
            profiles[v] = frozenset(mapping[x] for x in nodes if x in kept)
        return ProfiledGraph(self.graph, new_tax, profiles, validate=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProfiledGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"|GP|={self.taxonomy.num_nodes})"
        )
