"""Tests for the CS baselines: Global, Local, ACQ."""

import pytest

from repro.baselines import (
    acq_query,
    global_community,
    global_community_k,
    global_community_peel,
    local_community,
)
from repro.core import keyword_communities
from repro.datasets import fig1_profiled_graph
from repro.errors import VertexNotFoundError
from repro.graph import Graph, gnp_graph


@pytest.fixture(scope="module")
def pg():
    return fig1_profiled_graph()


class TestGlobal:
    def test_max_min_degree_community(self, pg):
        vertices, k_star = global_community(pg.graph, "D")
        assert k_star == 3
        assert vertices == frozenset("ABDE")

    def test_fixed_k(self, pg):
        assert global_community_k(pg.graph, "D", 2) == frozenset("ABCDE")
        assert global_community_k(pg.graph, "D", 4) == frozenset()

    def test_peel_matches_fast_path(self, pg):
        fast_vertices, fast_k = global_community(pg.graph, "D")
        peel_vertices, peel_k = global_community_peel(pg.graph, "D")
        assert fast_k == peel_k
        assert peel_vertices == fast_vertices

    @pytest.mark.parametrize("seed", range(4))
    def test_peel_matches_on_random_graphs(self, seed):
        g = gnp_graph(30, 0.2, seed=seed)
        for q in (0, 7, 15):
            fast_vertices, fast_k = global_community(g, q)
            peel_vertices, peel_k = global_community_peel(g, q)
            assert fast_k == peel_k
            assert peel_vertices == fast_vertices

    def test_unknown_vertex(self, pg):
        with pytest.raises(VertexNotFoundError):
            global_community(pg.graph, "ZZ")


class TestLocal:
    def test_finds_k_core_around_query(self, pg):
        community = local_community(pg.graph, "D", 2)
        assert community
        assert "D" in community
        for v in community:
            deg = sum(1 for u in pg.graph.neighbors(v) if u in community)
            assert deg >= 2

    def test_degree_too_small(self, pg):
        assert local_community(pg.graph, "C", 3) == frozenset()

    def test_does_not_cross_components(self, pg):
        community = local_community(pg.graph, "F", 2)
        assert community == frozenset("FGH")

    def test_budget_exhaustion_returns_empty(self):
        # a long cycle has no 3-core anywhere
        g = Graph((i, (i + 1) % 30) for i in range(30))
        assert local_community(g, 0, 3, expansion_budget=10) == frozenset()

    def test_local_subset_of_global(self, pg):
        local = local_community(pg.graph, "D", 2)
        global_ = global_community_k(pg.graph, "D", 2)
        assert local <= global_

    def test_unknown_vertex(self, pg):
        with pytest.raises(VertexNotFoundError):
            local_community(pg.graph, "ZZ", 2)


class TestACQ:
    def test_returns_only_max_keyword_community(self, pg):
        result = acq_query(pg, "D", 2)
        assert len(result) == 1
        assert result[0].vertices == frozenset("BCD")
        assert result[0].subtree.names() == {"r", "CM", "ML", "AI"}

    def test_shared_keywords_maximum_size(self, pg):
        pairs = keyword_communities(pg.graph, pg.all_labels(), "D", 2)
        assert len(pairs) == 1
        keywords, members = pairs[0]
        assert members == frozenset("BCD")
        assert len(keywords) == 4  # r, CM, ML, AI

    def test_no_community_when_k_large(self, pg):
        assert len(acq_query(pg, "D", 4)) == 0

    def test_keywordless_query_returns_empty(self):
        from repro.core import ProfiledGraph
        from repro.datasets import fig1_taxonomy

        tax = fig1_taxonomy()
        g = Graph([(0, 1), (1, 2), (2, 0)])
        pg2 = ProfiledGraph(g, tax, {})
        assert len(acq_query(pg2, 0, 2)) == 0
