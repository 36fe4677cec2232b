"""Tests for community detection via PCS."""

import pytest

from repro.core import coverage, detect_communities
from repro.datasets import fig1_profiled_graph
from repro.errors import InvalidInputError


@pytest.fixture(scope="module")
def pg():
    return fig1_profiled_graph()


class TestDetection:
    def test_covers_the_k_core(self, pg):
        communities = detect_communities(pg, 2)
        covered = set()
        for community in communities:
            covered |= community.vertices
        # every vertex of the 2-core belongs to some detected community
        from repro.graph import k_core_vertices

        assert k_core_vertices(pg.graph, 2) <= covered

    def test_finds_both_components(self, pg):
        communities = detect_communities(pg, 2)
        vertex_sets = {c.vertices for c in communities}
        assert any("F" in s for s in vertex_sets)
        assert any("D" in s for s in vertex_sets)

    def test_min_size_filter(self, pg):
        small = detect_communities(pg, 2, min_size=4)
        assert all(c.size >= 4 for c in small)

    def test_max_seeds_cap(self, pg):
        communities = detect_communities(pg, 2, max_seeds=1)
        assert communities  # one seed still yields communities

    def test_invalid_min_size(self, pg):
        with pytest.raises(InvalidInputError):
            detect_communities(pg, 2, min_size=0)

    def test_deduplicates(self, pg):
        communities = detect_communities(pg, 2)
        sets = [(c.vertices, c.subtree.nodes) for c in communities]
        assert len(sets) == len(set(sets))

    def test_coverage_metric(self, pg):
        communities = detect_communities(pg, 2)
        value = coverage(pg, communities)
        assert 0.0 < value <= 1.0
        assert coverage(pg, []) == 0.0

