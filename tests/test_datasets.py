"""Tests for the dataset suite: fig1, taxonomies, synthetic, ego, registry."""

import pytest

from repro.core import pcs
from repro.datasets import (
    DATASET_SPECS,
    EGO_SPECS,
    SyntheticConfig,
    ccs_fragment,
    ccs_like_taxonomy,
    dataset_names,
    dataset_taxonomy,
    fig1_profiled_graph,
    load_dataset,
    load_ego_network,
    mesh_like_taxonomy,
    simple_profiled_graph,
    synthetic_profiled_graph,
    synthetic_taxonomy,
)
from repro.errors import InvalidInputError


class TestFig1:
    def test_statistics(self):
        pg = fig1_profiled_graph()
        assert pg.num_vertices == 8
        assert pg.num_edges == 11
        assert pg.taxonomy.num_nodes == 7

    def test_example1_cores(self):
        from repro.graph import connected_k_core

        pg = fig1_profiled_graph()
        assert connected_k_core(pg.graph, "D", 3) == frozenset("ABDE")
        assert connected_k_core(pg.graph, "D", 2) == frozenset("ABCDE")
        assert connected_k_core(pg.graph, "F", 2) == frozenset("FGH")

    def test_paper_pcs_and_acq_divergence(self):
        from repro.baselines import acq_query

        pg = fig1_profiled_graph()
        pcs_result = pcs(pg, "D", 2)
        acq_result = acq_query(pg, "D", 2)
        assert len(pcs_result) == 2
        assert len(acq_result) == 1  # ACQ misses the {A, D, E} community


class TestTaxonomies:
    def test_ccs_fragment_names(self):
        tax = ccs_fragment()
        assert tax.id_of("Information systems") > 0
        assert tax.parent(tax.id_of("Machine learning")) == tax.id_of(
            "Computing methodologies"
        )

    def test_synthetic_taxonomy_size_and_depth(self):
        tax = synthetic_taxonomy(200, seed=1, max_depth=5)
        assert tax.num_nodes == 200
        assert tax.height() <= 5

    def test_synthetic_taxonomy_deterministic(self):
        a = synthetic_taxonomy(100, seed=9)
        b = synthetic_taxonomy(100, seed=9)
        assert [a.parent(i) for i in a.nodes()] == [b.parent(i) for i in b.nodes()]

    def test_sizes_match_paper(self):
        assert ccs_like_taxonomy(1908).num_nodes == 1908
        assert mesh_like_taxonomy(500).num_nodes == 500

    def test_invalid_args(self):
        with pytest.raises(InvalidInputError):
            synthetic_taxonomy(0)
        with pytest.raises(InvalidInputError):
            synthetic_taxonomy(10, max_depth=0)


class TestSynthetic:
    def test_profiles_ancestor_closed(self):
        tax = synthetic_taxonomy(150, seed=3)
        config = SyntheticConfig(num_vertices=80, num_communities=5)
        pg, communities = synthetic_profiled_graph(tax, config, seed=3)
        for v in pg.vertices():
            assert tax.is_ancestor_closed(pg.labels(v))
        assert len(communities) == 5

    def test_primary_members_share_theme(self):
        tax = synthetic_taxonomy(150, seed=4)
        config = SyntheticConfig(num_vertices=60, num_communities=3, theme_size=5)
        pg, communities = synthetic_profiled_graph(tax, config, seed=4)
        claimed = set()
        for members in communities:
            primary_members = [v for v in members if v not in claimed]
            claimed |= members
            if len(primary_members) < 2:
                continue
            common = None
            for v in primary_members:
                labels = pg.labels(v)
                common = labels if common is None else common & labels
            # primary members share a non-trivial subtree (their theme)
            assert common and len(common) >= 2

    def test_deterministic(self):
        tax = synthetic_taxonomy(100, seed=5)
        config = SyntheticConfig(num_vertices=50, num_communities=4)
        pg1, c1 = synthetic_profiled_graph(tax, config, seed=5)
        pg2, c2 = synthetic_profiled_graph(tax, config, seed=5)
        assert pg1.all_labels() == pg2.all_labels()
        assert c1 == c2
        assert pg1.num_edges == pg2.num_edges

    def test_simple_profiled_graph(self):
        tax = synthetic_taxonomy(50, seed=6)
        pg = simple_profiled_graph(tax, 30, seed=6)
        assert pg.num_vertices == 30

    def test_invalid_config(self):
        with pytest.raises(InvalidInputError):
            SyntheticConfig(num_vertices=0, num_communities=1)
        with pytest.raises(InvalidInputError):
            SyntheticConfig(num_vertices=10, num_communities=1, theme_size=0)


class TestRegistry:
    def test_names(self):
        assert set(dataset_names()) == {"acmdl", "flickr", "pubmed", "dblp"}

    def test_paper_rows(self):
        row = DATASET_SPECS["acmdl"].paper_row()
        assert row == (107_656, 717_958, 13.34, 11.54, 1_908)

    @pytest.mark.parametrize("name", ["acmdl"])
    def test_load_small_scale(self, name):
        pg = load_dataset(name, scale=0.004, seed=1)
        spec = DATASET_SPECS[name]
        stats = pg.stats()
        assert stats.num_vertices >= 300
        # degree lands within 40% of the paper's at tiny scales
        assert abs(stats.average_degree - spec.paper_avg_degree) < 0.4 * spec.paper_avg_degree
        assert stats.gp_tree_size == spec.paper_gp_size

    def test_with_ground_truth(self):
        pg, communities = load_dataset("acmdl", scale=0.004, with_ground_truth=True)
        assert communities
        for members in communities:
            assert all(v in pg for v in members)

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            load_dataset("imagenet")

    def test_bad_scale(self):
        with pytest.raises(InvalidInputError):
            load_dataset("acmdl", scale=0.0)

    def test_gp_size_override(self):
        pg = load_dataset("acmdl", scale=0.004, gp_size=400)
        assert pg.taxonomy.num_nodes == 400

    def test_taxonomy_cached(self):
        a = dataset_taxonomy("ccs", 1908)
        b = dataset_taxonomy("ccs", 1908)
        assert a is b


class TestEgo:
    def test_names(self):
        assert set(EGO_SPECS) == {"fb1", "fb2", "fb3"}

    def test_paper_rows(self):
        assert EGO_SPECS["fb1"].paper_row() == (1_233, 11_972, 19.41, 34.54)

    def test_load_fb3(self):
        pg, circles = load_ego_network("fb3", seed=2)
        assert pg.num_vertices == EGO_SPECS["fb3"].paper_vertices
        assert len(circles) == EGO_SPECS["fb3"].num_circles

    def test_unknown(self):
        with pytest.raises(InvalidInputError):
            load_ego_network("fb9")
