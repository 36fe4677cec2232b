"""Tests for k-core decomposition (repro.graph.core)."""

import random

import pytest

from repro.errors import InvalidInputError
from repro.graph import (
    Graph,
    connected_k_core,
    core_numbers,
    gnp_graph,
    k_core_vertices,
    k_core_within,
    minimum_degree,
    ring_of_cliques,
)
from repro.graph.core import core_numbers_within


def naive_k_core(graph: Graph, k: int) -> frozenset:
    """Reference implementation: repeatedly drop min-degree vertices."""
    alive = set(graph.vertices())
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            deg = sum(1 for u in graph.neighbors(v) if u in alive)
            if deg < k:
                alive.discard(v)
                changed = True
    return frozenset(alive)


class TestCoreNumbers:
    def test_triangle_plus_tail(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (2, 3)])
        core = core_numbers(g)
        assert core == {0: 2, 1: 2, 2: 2, 3: 1}

    def test_empty_graph(self):
        assert core_numbers(Graph()) == {}

    def test_isolated_vertices_core_zero(self):
        g = Graph()
        g.add_vertices([1, 2])
        assert core_numbers(g) == {1: 0, 2: 0}

    def test_clique_core(self):
        g = ring_of_cliques(1, 5)
        core = core_numbers(g)
        assert all(c == 4 for c in core.values())

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_on_random_graphs(self, seed):
        g = gnp_graph(50, 0.1, seed=seed)
        core = core_numbers(g)
        for k in range(0, 6):
            expected = naive_k_core(g, k)
            got = frozenset(v for v, c in core.items() if c >= k)
            assert got == expected

    def test_nestedness(self):
        g = gnp_graph(80, 0.12, seed=3)
        cores = [k_core_vertices(g, k) for k in range(6)]
        for smaller, larger_k in zip(cores, cores[1:]):
            assert larger_k <= smaller


class TestKCoreExtraction:
    def test_negative_k_rejected(self):
        with pytest.raises(InvalidInputError):
            k_core_vertices(Graph(), -1)

    def test_k_core_subgraph_min_degree(self):
        g = gnp_graph(60, 0.15, seed=11)
        sub = g.subgraph(k_core_vertices(g, 3))
        if sub.num_vertices:
            assert minimum_degree(sub) >= 3

    def test_connected_k_core_is_component(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4)])
        assert connected_k_core(g, 0, 2) == frozenset({0, 1, 2})
        assert connected_k_core(g, 4, 2) == frozenset({4, 5, 6})

    def test_connected_k_core_empty_when_peeled(self):
        g = Graph([(0, 1)])
        assert connected_k_core(g, 0, 2) == frozenset()


class TestKCoreWithin:
    def test_restriction_changes_answer(self):
        g = ring_of_cliques(2, 4)  # two K4s joined by an edge
        full = k_core_within(g, g.vertices(), 3, q=0)
        assert full == frozenset(range(8))  # the bridge keeps them one 3-core
        restricted = k_core_within(g, [0, 1, 2], 3, q=0)
        assert restricted == frozenset()

    def test_q_not_candidate_returns_empty(self):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        assert k_core_within(g, [0, 1], 0, q=2) == frozenset()

    def test_without_q_returns_all_survivors(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 5)])
        survivors = k_core_within(g, g.vertices(), 2)
        assert survivors == frozenset({0, 1, 2, 5, 6, 7})

    def test_component_selection_with_q(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 5)])
        assert k_core_within(g, g.vertices(), 2, q=5) == frozenset({5, 6, 7})

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_subgraph_peel(self, seed):
        rng = random.Random(seed)
        g = gnp_graph(40, 0.2, seed=seed)
        candidates = set(rng.sample(range(40), 25))
        sub = g.subgraph(candidates)
        for q in list(candidates)[:5]:
            for k in (1, 2, 3):
                expected = connected_k_core(sub, q, k)
                got = k_core_within(g, candidates, k, q=q)
                assert got == expected

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidInputError):
            k_core_within(Graph(), [], -2)


class TestCoreNumbersWithin:
    def test_matches_induced_subgraph(self):
        g = gnp_graph(50, 0.15, seed=9)
        selection = set(range(0, 50, 2))
        expected = core_numbers(g.subgraph(selection))
        got = core_numbers_within(g, selection)
        assert got == expected

    def test_empty_selection(self):
        g = gnp_graph(10, 0.3, seed=1)
        assert core_numbers_within(g, []) == {}


class TestMinimumDegree:
    def test_whole_graph(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (2, 3)])
        assert minimum_degree(g) == 1

    def test_restricted(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (2, 3)])
        assert minimum_degree(g, [0, 1, 2]) == 2

    def test_empty(self):
        assert minimum_degree(Graph()) == 0
        assert minimum_degree(Graph([(0, 1)]), []) == 0
