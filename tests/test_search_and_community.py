"""Tests for the search dispatcher, result containers and apriori internals."""

import pytest

from repro.core import (
    ALL_METHODS,
    FeasibilityOracle,
    PCS_METHODS,
    PCSResult,
    ProfiledCommunity,
    TraversalOutcome,
    apriori_traverse,
    pcs,
)
from repro.datasets import fig1_profiled_graph
from repro.ptree import PTree
from repro.ptree.taxonomy import ROOT


@pytest.fixture(scope="module")
def pg():
    return fig1_profiled_graph()


class TestMethodRegistry:
    def test_paper_methods(self):
        assert PCS_METHODS == ("basic", "incre", "adv-I", "adv-D", "adv-P")

    def test_all_methods_superset(self):
        assert set(PCS_METHODS) < set(ALL_METHODS)
        assert "closed" in ALL_METHODS

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_every_method_dispatches(self, pg, method):
        result = pcs(pg, "D", 2, method=method)
        assert len(result) == 2

    def test_method_case_insensitive(self, pg):
        assert len(pcs(pg, "D", 2, method="ADV-P")) == 2
        assert len(pcs(pg, "D", 2, method="Closed")) == 2


class TestProfiledCommunity:
    def test_fields_and_protocol(self, pg):
        community = pcs(pg, "D", 2)[0]
        assert isinstance(community, ProfiledCommunity)
        assert community.query == "D"
        assert community.k == 2
        assert "D" in community
        assert community.size == len(community.vertices)
        assert isinstance(community.theme(), frozenset)

    def test_frozen(self, pg):
        community = pcs(pg, "D", 2)[0]
        with pytest.raises(AttributeError):
            community.k = 9


class TestPCSResult:
    def test_container_protocol(self, pg):
        result = pcs(pg, "D", 2)
        assert len(result) == 2
        assert bool(result)
        assert result[0] in list(result)
        assert len(result.subtrees()) == 2
        assert len(result.vertex_sets()) == 2

    def test_empty_result_falsy(self, pg):
        result = pcs(pg, "D", 4)
        assert not result
        assert result.summary().startswith("PCS(")

    def test_sort_deterministic(self, pg):
        a = pcs(pg, "D", 2)
        b = pcs(pg, "D", 2, method="basic")
        assert [c.vertices for c in a] == [c.vertices for c in b]

    def test_vertices_are_ordered_once_for_tie_break_and_wire(self, pg):
        """One repr-order per community, shared by ``sort`` and the view;
        both orders are what the two separate sorts gave before."""
        from repro.api.response import CommunityView

        subtree = PTree(pg.taxonomy, frozenset({ROOT}), _validated=True)
        # int vertices: repr order (10 < 9) differs from value order, and
        # the two communities tie on subtree size and member count.
        first = ProfiledCommunity(1, 2, frozenset({1, 9, 30}), subtree)
        second = ProfiledCommunity(1, 2, frozenset({1, 10, 2}), subtree)
        result = PCSResult(1, 2, "adv-P", [first, second]).sort()
        assert result.communities == sorted(
            [first, second],
            key=lambda c: (-len(c.subtree), -c.size, tuple(sorted(map(repr, c.vertices)))),
        ) == [second, first]
        assert second.sorted_vertices == (1, 10, 2) == tuple(sorted(second.vertices, key=repr))
        assert second.sorted_vertices is second.sorted_vertices
        assert CommunityView.from_community(second).vertices is second.sorted_vertices


class TestAprioriTraverse:
    def test_outcome_type(self, pg):
        oracle = FeasibilityOracle(pg, "D", 2, index=pg.index())
        outcome = apriori_traverse(oracle)
        assert isinstance(outcome, TraversalOutcome)
        assert len(outcome.maximal) == 2
        assert outcome.first_cut is None  # not requested

    def test_stop_at_first(self, pg):
        oracle = FeasibilityOracle(pg, "D", 2, index=pg.index())
        outcome = apriori_traverse(oracle, stop_at_first_maximal=True)
        assert len(outcome.maximal) == 1
        assert outcome.first_cut is not None

    def test_infeasible_root(self, pg):
        oracle = FeasibilityOracle(pg, "D", 4, index=pg.index())
        outcome = apriori_traverse(oracle)
        assert outcome.maximal == {}

    def test_every_maximal_contains_root(self, pg):
        oracle = FeasibilityOracle(pg, "D", 2, index=pg.index())
        outcome = apriori_traverse(oracle)
        for subtree in outcome.maximal:
            assert ROOT in subtree


class TestAlivePruning:
    def test_dead_labels_removed_from_base(self, pg):
        # At k=3 only {r} is feasible from D: every other label of T(D) is
        # dead except those with 3-core support.
        oracle = FeasibilityOracle(pg, "D", 3, index=pg.index())
        full = pg.labels("D")
        assert oracle.base_nodes <= full
        assert ROOT in oracle.base_nodes
        # ML's 3-core around D is empty -> ML must be pruned.
        assert pg.taxonomy.id_of("ML") not in oracle.base_nodes

    def test_no_pruning_without_index(self, pg):
        oracle = FeasibilityOracle(pg, "D", 3, index=None)
        assert oracle.base_nodes == pg.labels("D")

    def test_pruning_preserves_answers(self, pg):
        for k in (1, 2, 3):
            with_index = {
                c.subtree.nodes: c.vertices for c in pcs(pg, "D", k, method="incre")
            }
            without = {
                c.subtree.nodes: c.vertices for c in pcs(pg, "D", k, method="basic")
            }
            assert with_index == without
