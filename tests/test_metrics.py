"""Tests for the effectiveness metrics (CPS, LDR, CPF, F1, stats)."""

import pytest

from repro.core import ProfiledGraph, pcs
from repro.datasets import fig1_profiled_graph, fig1_taxonomy
from repro.graph import Graph
from repro.metrics import (
    average_community_count,
    best_match_f1,
    community_pairwise_similarity,
    community_ptree_frequency,
    f1_score,
    level_diversity_ratio,
)


@pytest.fixture(scope="module")
def pg():
    return fig1_profiled_graph()


class TestCPS:
    def test_identical_profiles_give_one(self):
        tax = fig1_taxonomy()
        g = Graph([(0, 1), (1, 2), (2, 0)])
        pg2 = ProfiledGraph(g, tax, {v: ("ML",) for v in range(3)})
        assert community_pairwise_similarity(pg2, [frozenset({0, 1, 2})]) == 1.0

    def test_range(self, pg):
        value = community_pairwise_similarity(pg, [frozenset("ABDE")])
        assert 0.0 <= value <= 1.0

    def test_cohesive_higher_than_mixed(self, pg):
        # {B, C, D} share 4 labels; {A, B, G} share almost nothing.
        cohesive = community_pairwise_similarity(pg, [frozenset("BCD")])
        mixed = community_pairwise_similarity(pg, [frozenset("ABG")])
        assert cohesive > mixed

    def test_empty_collection(self, pg):
        assert community_pairwise_similarity(pg, []) == 0.0

    def test_singleton_community(self, pg):
        assert community_pairwise_similarity(pg, [frozenset("A")]) == 1.0


class TestLDR:
    def test_pcs_vs_itself_is_one(self, pg):
        result = list(pcs(pg, "D", 2))
        assert level_diversity_ratio(pg, "D", result, result) == pytest.approx(1.0)

    def test_acq_under_covers(self, pg):
        from repro.baselines import acq_query

        pcs_comms = list(pcs(pg, "D", 2))
        acq_comms = list(acq_query(pg, "D", 2))
        ldr = level_diversity_ratio(pg, "D", acq_comms, pcs_comms)
        assert 0.0 < ldr < 1.0  # ACQ misses the IS/DMS theme

    def test_empty_method_results(self, pg):
        pcs_comms = list(pcs(pg, "D", 2))
        assert level_diversity_ratio(pg, "D", [], pcs_comms) == 0.0

    def test_no_pcs_results(self, pg):
        assert level_diversity_ratio(pg, "D", [], []) == 0.0


class TestCPF:
    def test_perfect_coverage(self):
        tax = fig1_taxonomy()
        g = Graph([(0, 1), (1, 2), (2, 0)])
        pg2 = ProfiledGraph(g, tax, {v: ("ML", "AI") for v in range(3)})
        assert community_ptree_frequency(pg2, 0, [frozenset({0, 1, 2})]) == 1.0

    def test_range_and_monotonicity(self, pg):
        tight = community_ptree_frequency(pg, "D", [frozenset("BCD")])
        loose = community_ptree_frequency(pg, "D", [frozenset("ABCDE")])
        assert 0.0 <= loose <= tight <= 1.0

    def test_no_communities(self, pg):
        assert community_ptree_frequency(pg, "D", []) == 0.0

    def test_empty_query_profile(self):
        tax = fig1_taxonomy()
        g = Graph([(0, 1)])
        pg2 = ProfiledGraph(g, tax, {})
        assert community_ptree_frequency(pg2, 0, [frozenset({0, 1})]) == 0.0


class TestF1:
    def test_perfect_match(self):
        assert f1_score(frozenset({1, 2, 3}), frozenset({1, 2, 3})) == 1.0

    def test_disjoint(self):
        assert f1_score(frozenset({1}), frozenset({2})) == 0.0

    def test_partial(self):
        # precision 1/2, recall 1/3 -> F1 = 0.4
        assert f1_score(frozenset({1, 9}), frozenset({1, 2, 3})) == pytest.approx(0.4)

    def test_empty_sets(self):
        assert f1_score(frozenset(), frozenset({1})) == 0.0

    def test_best_match_prefers_circle_containing_q(self):
        truth = [frozenset({1, 2, 3}), frozenset({8, 9})]
        found = [frozenset({1, 2, 3})]
        assert best_match_f1(1, found, truth) == 1.0

    def test_best_match_falls_back_when_q_uncircled(self):
        truth = [frozenset({1, 2, 3})]
        found = [frozenset({1, 2})]
        assert best_match_f1(99, found, truth) == pytest.approx(0.8)


class TestStats:
    def test_average_count(self):
        assert average_community_count([[1, 2], [1]]) == pytest.approx(1.5)
        assert average_community_count([]) == 0.0
