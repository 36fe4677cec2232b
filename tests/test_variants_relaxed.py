"""Tests for metric variants (§5.3), relaxed PCS (§6) and keyword search."""

import pytest

from repro.core import (
    ALL_METHODS,
    FractionalKCoreCohesion,
    METRIC_VARIANTS,
    as_vertex_subtree_map,
    keyword_communities,
    maximal_feasible_keyword_sets,
    pcs,
    similarity_filtered_graph,
    variant_common_nodes,
    variant_common_paths,
    variant_common_subtree,
    variant_similarity,
)
from repro.datasets import fig1_profiled_graph, load_dataset
from repro.errors import InvalidInputError
from repro.graph import Graph, k_core_within, random_queries


@pytest.fixture(scope="module")
def pg():
    return fig1_profiled_graph()


@pytest.fixture(scope="module")
def acmdl_sample():
    acmdl = load_dataset("acmdl", scale=0.01, seed=3)
    return acmdl, random_queries(acmdl.graph, 40, 3, seed=3)


class TestKeywordCommunities:
    def test_max_cardinality_only(self, pg):
        pairs = keyword_communities(pg.graph, pg.all_labels(), "D", 2)
        sizes = {len(kw) for kw, _ in pairs}
        assert sizes == {4}

    def test_empty_when_no_core(self, pg):
        assert keyword_communities(pg.graph, pg.all_labels(), "D", 5) == []

    def test_max_level_cap(self, pg):
        pairs = keyword_communities(pg.graph, pg.all_labels(), "D", 2, max_level=2)
        assert all(len(kw) <= 2 for kw, _ in pairs)

    def test_maximal_sets_include_both_themes(self, pg):
        pairs = maximal_feasible_keyword_sets(pg.graph, pg.all_labels(), "D", 2)
        communities = {members for _, members in pairs}
        assert frozenset("BCD") in communities
        assert frozenset("ADE") in communities

    def test_maximal_sets_are_maximal(self, pg):
        pairs = maximal_feasible_keyword_sets(pg.graph, pg.all_labels(), "D", 2)
        sets = [kw for kw, _ in pairs]
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                assert i == j or not a < b


class TestMetricVariants:
    def test_registry_complete(self):
        assert set(METRIC_VARIANTS) == {"a", "b", "c", "d"}

    def test_variant_a_matches_acq(self, pg):
        result = variant_common_nodes(pg, "D", 2)
        assert len(result) == 1
        assert result[0].vertices == frozenset("BCD")

    def test_variant_b_paths(self, pg):
        result = variant_common_paths(pg, "D", 2)
        # leaves of T(D): ML, AI, DMS, HW; max feasible leaf set = {ML, AI}
        assert len(result) == 1
        assert result[0].vertices == frozenset("BCD")

    def test_variant_c_is_pcs(self, pg):
        result = variant_common_subtree(pg, "D", 2)
        expected = pcs(pg, "D", 2)
        assert {c.vertices for c in result} == {c.vertices for c in expected}
        assert result.method == "metric-c-subtree"

    def test_variant_d_single_community(self, pg):
        result = variant_similarity(pg, "D", 2, beta=0.2)
        assert len(result) <= 1
        if result:
            assert "D" in result[0].vertices

    def test_variant_d_bad_beta(self, pg):
        with pytest.raises(InvalidInputError):
            variant_similarity(pg, "D", 2, beta=1.5)

    def test_variants_report_true_common_subtree(self, pg):
        for key, fn in METRIC_VARIANTS.items():
            result = fn(pg, "D", 2)
            for community in result:
                common = None
                for v in community.vertices:
                    labels = pg.labels(v)
                    common = labels if common is None else common & labels
                assert community.subtree.nodes == common, key


class TestSimilarityRelaxation:
    def test_beta_zero_keeps_everything(self, pg):
        filtered = similarity_filtered_graph(pg, "D", 0.0)
        assert filtered.num_vertices == pg.num_vertices

    def test_beta_one_keeps_twins(self, pg):
        filtered = similarity_filtered_graph(pg, "B", 1.0)
        # B and C have identical profiles
        assert set(filtered.vertices()) == {"B", "C"}

    def test_bad_beta(self, pg):
        with pytest.raises(InvalidInputError):
            similarity_filtered_graph(pg, "D", 2.0)


class TestDegreeRelaxation:
    def test_delta_one_equals_k_core(self, pg):
        model = FractionalKCoreCohesion(1.0)
        got = model.within(pg.graph, pg.graph.vertices(), 2, "D")
        expected = k_core_within(pg.graph, pg.graph.vertices(), 2, q="D")
        assert got == expected

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_delta_one_equals_k_core_on_every_method(self, pg, acmdl_sample, method):
        strict = FractionalKCoreCohesion(1.0)
        for graph, queries in ((pg, list(pg.vertices())), acmdl_sample):
            for k in (1, 2, 3):
                for q in queries:
                    expected = pcs(graph, q, k, method=method)
                    got = pcs(graph, q, k, method=method, cohesion=strict)
                    assert as_vertex_subtree_map(got) == as_vertex_subtree_map(expected), (q, k)

    def test_delta_relaxes(self):
        # path 0-1-2-3: no 2-core, but with delta=0.5 half may have degree 1
        g = Graph([(0, 1), (1, 2), (2, 3)])
        strict = FractionalKCoreCohesion(1.0).within(g, g.vertices(), 2, 1)
        relaxed = FractionalKCoreCohesion(0.5).within(g, g.vertices(), 2, 1)
        assert strict == frozenset()
        assert 1 in relaxed and len(relaxed) >= 2

    def test_invalid_delta(self):
        with pytest.raises(InvalidInputError):
            FractionalKCoreCohesion(0.0)

    def test_relaxed_pcs_superset_of_strict(self, pg):
        strict = pcs(pg, "D", 2, method="incre")
        relaxed = pcs(pg, "D", 2, method="incre", cohesion=FractionalKCoreCohesion(0.6))
        # every strict community's vertex set is contained in some relaxed one
        for community in strict:
            assert any(
                community.vertices <= other.vertices or community.vertices == other.vertices
                for other in relaxed
            )

    def test_q_absent_returns_empty(self):
        g = Graph([(0, 1)])
        model = FractionalKCoreCohesion(0.5)
        assert model.within(g, [0, 1], 1, 99) == frozenset()
