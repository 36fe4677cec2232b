"""Differential tests: the CSR backend must be invisible except for speed.

Every kernel that :mod:`repro.graph.csr` rewrites in flat arrays —
core decomposition, restricted decomposition, ``k_core_within``,
connected components — is compared against the pure-object implementation
on the same inputs, and full ``pcs`` answers are compared across backends
on all six methods over the fig1, synthetic and ego datasets. Hypothesis
drives randomised parity checks plus an interning round-trip under vertex
removal/re-add (the CSR cache must never serve stale adjacency).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import as_vertex_subtree_map, pcs
from repro.core.search import ALL_METHODS
from repro.datasets import (
    SyntheticConfig,
    fig1_profiled_graph,
    load_ego_network,
    synthetic_profiled_graph,
)
from repro.datasets.taxonomies import synthetic_taxonomy
from repro.graph import Graph, core_numbers, gnp_graph, k_core_within
from repro.graph.core import core_numbers_within
from repro.graph.csr import (
    BACKENDS,
    CSRGraph,
    active_backend,
    backend_override,
    csr_view,
)

#: Backends compared against the ``object`` reference.
PARITY_BACKENDS = tuple(b for b in BACKENDS if b != "object")


def canonical(result):
    """Backend-independent shape of a PCS answer."""
    return {t: frozenset(c) for t, c in as_vertex_subtree_map(result).items()}


def random_graph(seed: int, n: int = 40, p: float = 0.15) -> Graph:
    """A small random graph with string vertices (exercises interning)."""
    g = gnp_graph(n, p, seed=seed)
    out = Graph()
    for v in g.vertex_set():
        out.add_vertex(f"v{v}")
    for u, v in g.edges():
        out.add_edge(f"v{u}", f"v{v}")
    return out


class TestKernelParity:
    """Array kernels agree with the object implementations exactly."""

    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_core_numbers(self, backend, seed):
        g = random_graph(seed)
        with backend_override("object"):
            expected = core_numbers(g)
        with backend_override(backend):
            assert core_numbers(g) == expected

    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_core_numbers_within(self, backend, seed):
        g = random_graph(seed)
        rng = random.Random(seed)
        members = rng.sample(sorted(g.vertex_set()), g.num_vertices // 2)
        members += members[:3] + ["absent"]  # repeats and strangers are ignored
        with backend_override("object"):
            expected = core_numbers_within(g, members)
        with backend_override(backend):
            assert core_numbers_within(g, members) == expected

    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_k_core_within(self, backend, seed):
        g = random_graph(seed)
        rng = random.Random(seed ^ 0xC0FFEE)
        cand = rng.sample(sorted(g.vertex_set()), 3 * g.num_vertices // 4)
        for k in (1, 2, 3):
            q = cand[0]
            with backend_override("object"):
                expected = k_core_within(g, cand, k, q=q)
            with backend_override(backend):
                assert k_core_within(g, cand, k, q=q) == expected

    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_component_of(self, backend, seed):
        g = random_graph(seed, n=30, p=0.08)
        rng = random.Random(seed)
        within = rng.sample(sorted(g.vertex_set()), 20)
        source = within[0]
        with backend_override("object"):
            full = g.component_of(source)
            restricted = g.component_of(source, within)
        with backend_override(backend):
            csr_view(g)  # ensure the fast path has a view to hit
            assert g.component_of(source) == full
            assert g.component_of(source, within) == restricted


class TestPcsDifferential:
    """Full pcs answers are byte-identical across backends, all 6 methods."""

    @staticmethod
    def answers(make_pg, queries, k):
        out = {}
        for backend in ("object",) + PARITY_BACKENDS:
            with backend_override(backend):
                pg = make_pg()
                out[backend] = {
                    (m, q): canonical(pcs(pg, q, k, method=m))
                    for m in ALL_METHODS
                    for q in queries
                }
        reference = out.pop("object")
        return reference, out

    def test_fig1(self):
        reference, others = self.answers(
            fig1_profiled_graph, queries=("A", "D", "H"), k=2
        )
        for backend, got in others.items():
            assert got == reference, f"{backend} diverged on fig1"

    def test_synthetic(self):
        tax = synthetic_taxonomy(120, seed=7)
        config = SyntheticConfig(
            num_vertices=120,
            num_communities=8,
            avg_community_size=14,
            theme_size=5,
            tokens_per_vertex=2,
        )

        def make_pg():
            pg, _ = synthetic_profiled_graph(tax, config, seed=7)
            return pg

        queries = random.Random(7).sample(sorted(make_pg().vertices()), 3)
        reference, others = self.answers(make_pg, queries, k=3)
        assert any(reference.values()), "synthetic instance answered nothing"
        for backend, got in others.items():
            assert got == reference, f"{backend} diverged on synthetic"

    def test_ego(self):
        def make_pg():
            pg, _ = load_ego_network("fb3", seed=2)
            return pg

        queries = sorted(make_pg().vertices())[:2]
        reference, others = self.answers(make_pg, queries, k=3)
        for backend, got in others.items():
            assert got == reference, f"{backend} diverged on ego fb3"


class TestBackendMechanics:
    """Selection, caching and invalidation of the CSR view."""

    def test_csr_view_absent_under_object_backend(self):
        g = random_graph(0)
        with backend_override("object"):
            assert csr_view(g) is None

    def test_csr_view_cached_and_invalidated(self):
        g = random_graph(1)
        with backend_override("csr"):
            view = csr_view(g)
            assert isinstance(view, CSRGraph)
            assert csr_view(g) is view  # cached
            g.add_edge("v0", "new-vertex")
            rebuilt = csr_view(g)
            assert rebuilt is not view  # mutation invalidated the cache
            assert "new-vertex" in rebuilt.index_of

    def test_view_built_across_a_commit_is_never_served(self, monkeypatch):
        """A reader interns outside any lock; a writer that commits during
        the build used to have its invalidation overwritten by the reader's
        late install, and every later read answered from the old topology."""
        g = Graph([(0, 1), (1, 2), (2, 0), (2, 3)])  # triangle plus pendant
        intern = CSRGraph.from_graph.__func__

        def writer_commits_during_build(cls, graph):
            view = intern(cls, graph)
            monkeypatch.undo()  # the writer's own reads intern normally
            graph.add_edge(3, 0)
            graph.add_edge(3, 1)
            return view

        monkeypatch.setattr(
            CSRGraph, "from_graph", classmethod(writer_commits_during_build)
        )
        with backend_override("csr"):
            csr_view(g)  # the racing reader installs its snapshot late
            # Neither of these builds a view; both must see through the stale one.
            assert g.component_of(3, within=[0, 3]) == frozenset({0, 3})
            assert csr_view(g.copy(), build=False) is None
            everyone = [0, 1, 2, 3]
            assert sorted(k_core_within(g, everyone, 3)) == everyone
            assert csr_view(g).num_edges == 6

    def test_override_nesting_restores(self):
        with backend_override("object"):
            assert active_backend() == "object"
            with backend_override("csr"):
                assert active_backend() == "csr"
            assert active_backend() == "object"


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(0, 10**6), st.integers(5, 40), st.floats(0.05, 0.5))
def test_property_core_numbers_parity(seed, n, p):
    """Hypothesis: core decompositions agree on arbitrary random graphs."""
    g = random_graph(seed, n=n, p=p)
    with backend_override("object"):
        expected = core_numbers(g)
    for backend in PARITY_BACKENDS:
        with backend_override(backend):
            assert core_numbers(g) == expected


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.integers(0, 10**6),
    st.integers(5, 40),
    st.floats(0.05, 0.5),
    st.integers(1, 4),
)
def test_property_k_core_within_parity(seed, n, p, k):
    """Hypothesis: restricted k-cores agree on arbitrary candidate sets."""
    g = random_graph(seed, n=n, p=p)
    rng = random.Random(seed)
    cand = rng.sample(sorted(g.vertex_set()), max(2, n // 2))
    q = rng.choice(cand)
    with backend_override("object"):
        expected = k_core_within(g, cand, k, q=q)
    for backend in PARITY_BACKENDS:
        with backend_override(backend):
            assert k_core_within(g, cand, k, q=q) == expected


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(0, 10**6), st.integers(6, 25))
def test_property_interning_roundtrip_under_mutation(seed, n):
    """Remove a vertex, re-add it: the rebuilt CSR serves fresh adjacency.

    The intern table is rebuilt per CSR construction, so removing and
    re-adding a vertex (with different edges) must never leak the old
    neighbourhood through a stale cache.
    """
    g = random_graph(seed, n=n, p=0.3)
    rng = random.Random(seed)
    victim = rng.choice(sorted(g.vertex_set()))
    with backend_override("csr"):
        before = csr_view(g)
        assert victim in before.index_of
        old_neighbours = set(g.neighbors(victim))
        g.remove_vertex(victim)
        after_removal = csr_view(g)
        assert after_removal is not before
        assert victim not in after_removal.index_of
        assert core_numbers(g) == _object_cores(g)
        survivors = sorted(g.vertex_set())
        g.add_vertex(victim)
        new_neighbours = set(rng.sample(survivors, min(3, len(survivors))))
        for u in new_neighbours:
            g.add_edge(victim, u)
        rebuilt = csr_view(g)
        idx = rebuilt.index_of[victim]
        served = {
            rebuilt.ids[rebuilt.indices[i]]
            for i in range(rebuilt.indptr[idx], rebuilt.indptr[idx + 1])
        }
        assert served == new_neighbours
        assert served == set(g.neighbors(victim))
        # The old neighbourhood must not bleed through unless re-chosen.
        assert not (served - new_neighbours) & (old_neighbours - new_neighbours)


def _object_cores(g: Graph):
    """Object-backend core numbers for cross-checking inside a CSR block."""
    with backend_override("object"):
        return core_numbers(g)
