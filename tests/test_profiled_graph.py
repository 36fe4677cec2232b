"""Tests for ProfiledGraph (profiles, stats, sampling)."""

import pytest

from repro.core import ProfiledGraph
from repro.datasets import fig1_profiled_graph, fig1_taxonomy
from repro.errors import InvalidInputError, VertexNotFoundError
from repro.graph import Graph
from repro.ptree import PTree


@pytest.fixture
def pg():
    return fig1_profiled_graph()


class TestConstruction:
    def test_profiles_closed(self, pg):
        tax = pg.taxonomy
        for v in pg.vertices():
            assert tax.is_ancestor_closed(pg.labels(v))

    def test_name_profiles_coerced(self):
        tax = fig1_taxonomy()
        g = Graph([("x", "y")])
        pg = ProfiledGraph(g, tax, {"x": ("ML",)})
        assert pg.labels("x") == tax.closure([tax.id_of("ML")])

    def test_ptree_profile_accepted(self):
        tax = fig1_taxonomy()
        g = Graph([("x", "y")])
        profile = PTree.from_names(tax, ["AI"])
        pg = ProfiledGraph(g, tax, {"x": profile})
        assert pg.labels("x") == profile.nodes

    def test_missing_vertices_get_empty_profile(self):
        tax = fig1_taxonomy()
        g = Graph([("x", "y")])
        pg = ProfiledGraph(g, tax, {})
        assert pg.labels("x") == frozenset()

    def test_unknown_vertex_rejected(self):
        tax = fig1_taxonomy()
        g = Graph([("x", "y")])
        with pytest.raises(VertexNotFoundError):
            ProfiledGraph(g, tax, {"zz": ("ML",)})

    def test_foreign_taxonomy_ptree_rejected(self):
        tax1 = fig1_taxonomy()
        tax2 = fig1_taxonomy()
        g = Graph([("x", "y")])
        with pytest.raises(InvalidInputError):
            ProfiledGraph(g, tax1, {"x": PTree.root_only(tax2)})


class TestAccess:
    def test_ptree_cached(self, pg):
        assert pg.ptree("A") is pg.ptree("A")

    def test_labels_missing_raises(self, pg):
        with pytest.raises(VertexNotFoundError):
            pg.labels("ZZ")

    def test_vertices_with_subtree(self, pg):
        tax = pg.taxonomy
        ml_tree = tax.closure([tax.id_of("ML")])
        assert pg.vertices_with_subtree(ml_tree) == frozenset("BCD")
        assert pg.vertices_with_subtree(frozenset()) == pg.graph.vertex_set()

    def test_contains(self, pg):
        assert "A" in pg
        assert "ZZ" not in pg


class TestStats:
    def test_stats_row(self, pg):
        stats = pg.stats()
        assert stats.num_vertices == 8
        assert stats.num_edges == 11
        assert stats.gp_tree_size == 7
        assert stats.average_ptree_size == pytest.approx(
            sum(len(pg.labels(v)) for v in pg.vertices()) / 8
        )


class TestSampling:
    def test_sample_vertices(self, pg):
        sub = pg.sample_vertices(0.5, seed=1)
        assert sub.num_vertices == 4
        for v in sub.vertices():
            assert sub.labels(v) == pg.labels(v)

    def test_sample_vertices_full_fraction_returns_self(self, pg):
        assert pg.sample_vertices(1.0) is pg

    def test_sample_vertices_bad_fraction(self, pg):
        with pytest.raises(InvalidInputError):
            pg.sample_vertices(0.0)
        with pytest.raises(InvalidInputError):
            pg.sample_vertices(1.5)

    def test_sample_ptrees_closed_and_smaller(self, pg):
        sub = pg.sample_ptrees(0.5, seed=2)
        assert sub.num_vertices == pg.num_vertices
        for v in sub.vertices():
            assert sub.taxonomy.is_ancestor_closed(sub.labels(v))
            assert len(sub.labels(v)) <= len(pg.labels(v)) or len(pg.labels(v)) <= 1

    def test_sample_ptrees_deterministic(self, pg):
        a = pg.sample_ptrees(0.4, seed=3)
        b = pg.sample_ptrees(0.4, seed=3)
        assert a.all_labels() == b.all_labels()

    def test_restrict_gp_tree(self, pg):
        sub = pg.restrict_gp_tree(0.5, seed=4)
        assert sub.taxonomy.num_nodes <= pg.taxonomy.num_nodes
        for v in sub.vertices():
            assert sub.taxonomy.is_ancestor_closed(sub.labels(v))

    def test_restrict_gp_tree_keeps_topology(self, pg):
        sub = pg.restrict_gp_tree(0.3, seed=5)
        assert sub.num_vertices == pg.num_vertices
        assert sub.num_edges == pg.num_edges
