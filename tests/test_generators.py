"""Tests for the random graph generators."""

import pytest

from repro.errors import InvalidInputError
from repro.graph import (
    Graph,
    core_numbers,
    gnp_graph,
    planted_community_graph,
    preferential_attachment_graph,
    random_queries,
    ring_of_cliques,
)


class TestGnp:
    def test_size(self):
        g = gnp_graph(50, 0.1, seed=0)
        assert g.num_vertices == 50

    def test_extremes(self):
        empty = gnp_graph(10, 0.0, seed=0)
        assert empty.num_edges == 0
        full = gnp_graph(6, 1.0, seed=0)
        assert full.num_edges == 15

    def test_deterministic(self):
        a = gnp_graph(40, 0.2, seed=5)
        b = gnp_graph(40, 0.2, seed=5)
        assert sorted(map(sorted, a.edges())) == sorted(map(sorted, b.edges()))

    def test_density_roughly_matches_p(self):
        g = gnp_graph(200, 0.1, seed=1)
        expected = 0.1 * 199 / 2 * 200
        assert 0.6 * expected < g.num_edges < 1.4 * expected

    def test_invalid_args(self):
        with pytest.raises(InvalidInputError):
            gnp_graph(-1, 0.5)
        with pytest.raises(InvalidInputError):
            gnp_graph(5, 1.5)


class TestPreferentialAttachment:
    def test_connected_and_sized(self):
        g = preferential_attachment_graph(100, 3, seed=2)
        assert g.num_vertices == 100
        assert g.component_of(0) == g.vertex_set()
        assert g.num_edges >= 3 * 96

    def test_heavy_tail(self):
        g = preferential_attachment_graph(300, 2, seed=3)
        degrees = sorted((g.degree(v) for v in g.vertices()), reverse=True)
        # the hub is much larger than the median degree
        assert degrees[0] >= 4 * degrees[len(degrees) // 2]

    def test_invalid_args(self):
        with pytest.raises(InvalidInputError):
            preferential_attachment_graph(5, 0)
        with pytest.raises(InvalidInputError):
            preferential_attachment_graph(3, 3)


class TestPlantedCommunities:
    def test_ground_truth_shape(self):
        g, communities = planted_community_graph(
            200, 10, 15, seed=4, p_in=0.5, overlap=0.2
        )
        assert g.num_vertices == 200
        assert len(communities) == 10
        for members in communities:
            assert 3 <= len(members) <= 23

    def test_communities_denser_than_background(self):
        g, communities = planted_community_graph(
            300, 8, 20, seed=5, p_in=0.5, p_out_degree=1.0
        )
        adj = g.adjacency()
        intra = 0
        possible = 0
        for members in communities:
            ms = sorted(members)
            for i, u in enumerate(ms):
                intra += sum(1 for v in ms[i + 1 :] if v in adj[u])
                possible += len(ms) - i - 1
        density_in = intra / possible
        density_all = 2 * g.num_edges / (300 * 299)
        assert density_in > 5 * density_all

    def test_blocky_overlap(self):
        _, communities = planted_community_graph(
            100, 12, 20, seed=6, overlap=0.4
        )
        overlaps = [
            len(a & b)
            for i, a in enumerate(communities)
            for b in communities[i + 1 :]
        ]
        assert max(overlaps) >= 4  # blocks, not single scattered vertices

    def test_invalid_args(self):
        with pytest.raises(InvalidInputError):
            planted_community_graph(0, 1, 5)
        with pytest.raises(InvalidInputError):
            planted_community_graph(10, -1, 5)
        with pytest.raises(InvalidInputError):
            planted_community_graph(10, 1, 5, overlap=2.0)


class TestRingOfCliques:
    def test_structure(self):
        g = ring_of_cliques(3, 4)
        assert g.num_vertices == 12
        core = core_numbers(g)
        assert all(c >= 3 for c in core.values())

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            ring_of_cliques(0, 3)


class TestRandomQueries:
    def test_queries_come_from_k_core(self):
        g = gnp_graph(120, 0.15, seed=7)
        queries = random_queries(g, 10, 4, seed=7)
        core = core_numbers(g)
        for q in queries:
            assert core[q] >= 4

    def test_fallback_when_core_empty(self):
        g = Graph([(0, 1), (1, 2)])
        queries = random_queries(g, 2, 10, seed=8)
        assert queries  # falls back to a smaller core instead of empty

    def test_restriction(self):
        g = gnp_graph(60, 0.3, seed=9)
        allowed = set(range(0, 30))
        queries = random_queries(g, 5, 2, seed=9, restrict_to=allowed)
        assert set(queries) <= allowed

    def test_count_capped_by_pool(self):
        g = ring_of_cliques(1, 5)
        queries = random_queries(g, 50, 4, seed=10)
        assert len(queries) == 5
