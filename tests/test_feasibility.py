"""Tests for the feasibility oracle (Gk[T] computation, Lemma 2/3)."""

import random

import pytest

from repro.core import (
    FeasibilityOracle,
    KCoreCohesion,
    KTrussCohesion,
    ProfiledGraph,
    pcs,
)
from repro.core.search import ALL_METHODS
from repro.datasets import fig1_profiled_graph, simple_profiled_graph
from repro.datasets.taxonomies import synthetic_taxonomy
from repro.errors import VertexNotFoundError
from repro.graph import Graph, k_core_within
from repro.index.cptree import ptree_leaves
from repro.ptree import enumerate_subtrees, PTree
from repro.ptree.taxonomy import ROOT


@pytest.fixture
def pg():
    return fig1_profiled_graph()


def nodes_of(pg, *names):
    return frozenset(pg.taxonomy.id_of(n) for n in names) | {ROOT}


class TestBasicMode:
    """Oracle without index (Algorithm 1 semantics)."""

    def test_fig1_feasible_subtrees(self, pg):
        oracle = FeasibilityOracle(pg, "D", 2)
        assert oracle.community(nodes_of(pg, "CM", "ML", "AI")) == frozenset("BCD")
        assert oracle.community(nodes_of(pg, "IS", "DMS")) == frozenset("ADE")
        assert oracle.community(nodes_of(pg, "CM", "IS")) == frozenset()

    def test_empty_subtree_is_gk(self, pg):
        oracle = FeasibilityOracle(pg, "D", 2)
        assert oracle.community(frozenset()) == frozenset("ABCDE")

    def test_subtree_outside_query_profile_infeasible(self, pg):
        oracle = FeasibilityOracle(pg, "E", 2)  # E has no CM
        assert oracle.community(nodes_of(pg, "CM")) == frozenset()

    def test_unknown_query_rejected(self, pg):
        with pytest.raises(VertexNotFoundError):
            FeasibilityOracle(pg, "ZZ", 2)


class TestIndexMode:
    def test_matches_basic_mode(self, pg):
        index = pg.index()
        with_index = FeasibilityOracle(pg, "D", 2, index=index)
        without = FeasibilityOracle(pg, "D", 2)
        base = PTree(pg.taxonomy, pg.labels("D"), _validated=True)
        for subtree in enumerate_subtrees(base):
            assert with_index.community(subtree) == without.community(subtree)

    def test_incremental_matches_from_scratch(self, pg):
        index = pg.index()
        oracle = FeasibilityOracle(pg, "D", 2, index=index)
        parent = nodes_of(pg, "CM")
        ml = pg.taxonomy.id_of("ML")
        child = parent | {ml}
        incremental = oracle.community_from_parent(child, parent, ml)
        fresh = FeasibilityOracle(pg, "D", 2, index=index).community(child)
        assert incremental == fresh

    @pytest.mark.parametrize("seed", range(3))
    def test_random_cross_check(self, seed):
        tax = synthetic_taxonomy(25, seed=seed)
        pg = simple_profiled_graph(tax, 30, seed=seed, edge_probability=0.25)
        index = pg.index()
        rng = random.Random(seed)
        q = rng.randrange(30)
        k = rng.randint(1, 3)
        indexed = FeasibilityOracle(pg, q, k, index=index)
        plain = FeasibilityOracle(pg, q, k)
        base = PTree(tax, pg.labels(q), _validated=True)
        for subtree in enumerate_subtrees(base):
            expected = k_core_within(
                pg.graph, pg.vertices_with_subtree(subtree), k, q=q
            )
            assert plain.community(subtree) == expected
            assert indexed.community(subtree) == expected


class TestAntiMonotonicity:
    """Lemma 2: supertrees of infeasible subtrees are infeasible."""

    @pytest.mark.parametrize("seed", range(3))
    def test_holds_on_random_instances(self, seed):
        tax = synthetic_taxonomy(15, seed=seed)
        pg = simple_profiled_graph(tax, 25, seed=seed, edge_probability=0.3)
        rng = random.Random(seed)
        q = rng.randrange(25)
        oracle = FeasibilityOracle(pg, q, 2, index=pg.index())
        base = PTree(tax, pg.labels(q), _validated=True)
        subtrees = list(enumerate_subtrees(base, include_empty=False))
        feasible = {s for s in subtrees if oracle.is_feasible(s)}
        for s in subtrees:
            for t in subtrees:
                if s < t and t in feasible:
                    assert s in feasible  # contrapositive of Lemma 2


class TestMaximality:
    def test_fig1_maximal(self, pg):
        oracle = FeasibilityOracle(pg, "D", 2, index=pg.index())
        assert oracle.is_maximal(nodes_of(pg, "CM", "ML", "AI"))
        assert oracle.is_maximal(nodes_of(pg, "IS", "DMS"))
        assert not oracle.is_maximal(nodes_of(pg, "CM"))
        assert not oracle.is_maximal(nodes_of(pg, "CM", "IS"))  # infeasible

    def test_verification_counter_monotone(self, pg):
        oracle = FeasibilityOracle(pg, "D", 2, index=pg.index())
        before = oracle.verifications
        oracle.community(nodes_of(pg, "CM"))
        mid = oracle.verifications
        oracle.community(nodes_of(pg, "CM"))  # cached
        assert mid > before
        assert oracle.verifications == mid


class TestAlternativeCohesion:
    def test_truss_oracle(self, pg):
        oracle = FeasibilityOracle(
            pg, "D", 3, index=pg.index(), cohesion=KTrussCohesion()
        )
        # {B, C, D} is a triangle: a 3-truss
        community = oracle.community(nodes_of(pg, "CM", "ML", "AI"))
        assert community == frozenset("BCD")


# ----------------------------------------------------------------------
# "already final: no peel" — a candidate set equal to one of its operands
# is stored without calling the cohesion model (k-core + index only).
# ----------------------------------------------------------------------
@pytest.fixture
def count_within(monkeypatch):
    """Wrap ``cls.within`` with a call counter; returns the counter list."""

    def wrap(cls):
        calls = []
        original = cls.within

        def counted(self, graph, candidates, k, q):
            calls.append(len(candidates) if hasattr(candidates, "__len__") else None)
            return original(self, graph, candidates, k, q)

        monkeypatch.setattr(cls, "within", counted)
        return calls

    return wrap


def seeded_instances():
    """fig1 plus the three seeded graphs of ``test_random_cross_check``."""
    yield "fig1", fig1_profiled_graph(), 2
    for seed in range(3):
        tax = synthetic_taxonomy(25, seed=seed)
        pg = simple_profiled_graph(tax, 30, seed=seed, edge_probability=0.25)
        yield f"seed{seed}", pg, random.Random(seed).randint(1, 3)


def root_to_leaf_paths(pg, q):
    for leaf in ptree_leaves(pg.labels(q), pg.taxonomy):
        yield frozenset(pg.taxonomy.path_to_root(leaf))


def fresh(pg, subtree, k, q):
    return k_core_within(pg.graph, pg.vertices_with_subtree(subtree), k, q=q)


#: ``pcs(...).num_verifications`` read on the commit before the rule
#: landed: (instance, q, k) -> method -> count. The rule skips peels, never
#: verifications.
PARENT_VERIFICATIONS = {
    ("fig1", "D", 2): dict(zip(ALL_METHODS, (20, 13, 13, 15, 13, 9))),
    ("seed0", 27, 2): dict(zip(ALL_METHODS, (32, 17, 17, 6, 7, 16))),
    ("seed1", 4, 3): dict(zip(ALL_METHODS, (6, 3, 3, 2, 2, 3))),
    ("seed2", 27, 1): dict(zip(ALL_METHODS, (15, 15, 15, 11, 11, 14))),
}


class TestPeelSkippedOnlyWhereFinal:
    def test_single_leaf_subtrees_never_peel(self, count_within):
        calls = count_within(KCoreCohesion)
        for name, pg, k in seeded_instances():
            index = pg.index()
            for q in pg.vertices():
                oracle = FeasibilityOracle(pg, q, k, index=index)
                probes = [frozenset(), frozenset({ROOT}), *root_to_leaf_paths(pg, q)]
                got = [oracle.community(t) for t in probes]
                assert calls == [], f"{name}: q={q!r} peeled {calls}"
                assert got == [fresh(pg, t, k, q) for t in probes]
                calls.clear()  # the fresh recomputes above went through within

    def test_single_leaf_answer_is_the_indexes_own_set(self, pg):
        index = pg.index()
        oracle = FeasibilityOracle(pg, "D", 2, index=index)
        cm = pg.taxonomy.id_of("CM")
        assert oracle.community(nodes_of(pg, "CM")) is index.get(2, "D", cm)

    def test_strictly_smaller_intersection_still_peels(self, pg, count_within):
        calls = count_within(KCoreCohesion)
        index = pg.index()
        subtree = nodes_of(pg, "CM", "IS")
        operands = [index.get(2, "D", pg.taxonomy.id_of(n)) for n in ("CM", "IS")]
        meet = operands[0] & operands[1]
        assert "D" in meet and all(len(meet) < len(s) for s in operands)
        oracle = FeasibilityOracle(pg, "D", 2, index=index)
        assert oracle.community(subtree) == fresh(pg, subtree, 2, "D") == frozenset()
        assert calls[:1] == [len(meet)]  # the oracle's one peel, then fresh()'s

    def test_from_parent_equal_to_an_operand_skips_the_peel(self, pg, count_within):
        calls = count_within(KCoreCohesion)
        index = pg.index()
        oracle = FeasibilityOracle(pg, "D", 2, index=index)
        parent = nodes_of(pg, "CM")
        ml = pg.taxonomy.id_of("ML")
        got = oracle.community_from_parent(parent | {ml}, parent, ml)
        assert calls == [] and oracle.verifications == 2
        assert got == fresh(pg, parent | {ml}, 2, "D") == frozenset("BCD")

    def test_unprofiled_vertex_keeps_the_whole_graph_peel(self, count_within):
        # K4 whose vertex 3 carries no label: G3[∅] is the whole K4, while
        # the root label's 3-ĉore (a triangle peeled at k=3) is empty.
        tax = synthetic_taxonomy(3, seed=0)
        graph = Graph((u, v) for u in range(4) for v in range(u))
        profiles = {v: frozenset({ROOT}) for v in range(3)}
        profiles[3] = frozenset()
        pg = ProfiledGraph(graph, tax, profiles, validate=False)
        calls = count_within(KCoreCohesion)
        oracle = FeasibilityOracle(pg, 0, 3, index=pg.index())
        assert oracle.community(frozenset()) == frozenset(range(4))
        assert len(calls) == 1
        assert oracle.community(frozenset({ROOT})) == frozenset()

    @pytest.mark.parametrize(
        "cls, k, indexed",
        [(KTrussCohesion, 3, True), (KCoreCohesion, 2, False), (KTrussCohesion, 3, False)],
    )
    def test_other_modes_peel_on_every_verification(
        self, pg, count_within, cls, k, indexed
    ):
        base = PTree(pg.taxonomy, pg.labels("D"), _validated=True)
        subtrees = list(enumerate_subtrees(base))
        index = pg.index()
        # An index-mode k-core oracle runs first: nothing it decides may
        # carry over to the oracles below (the sizing prototype kept the
        # "final" flag in a slot only the index branch assigned).
        warm = FeasibilityOracle(pg, "D", 2, index=index)
        for t in subtrees:
            warm.community(t)
        calls = count_within(cls)
        oracle = FeasibilityOracle(
            pg, "D", k, index=index if indexed else None, cohesion=cls()
        )
        plain = FeasibilityOracle(pg, "D", k, cohesion=cls())
        assert [oracle.community(t) for t in subtrees] == [
            plain.community(t) for t in subtrees
        ]
        assert oracle.verifications == plain.verifications == len(subtrees)
        assert len(calls) == 2 * len(subtrees)

    def test_index_free_after_index_mode(self, pg):
        FeasibilityOracle(pg, "D", 2, index=pg.index()).community(nodes_of(pg, "CM"))
        oracle = FeasibilityOracle(pg, "D", 2)
        assert oracle.community(nodes_of(pg, "CM", "ML", "AI")) == frozenset("BCD")
        assert oracle.community(nodes_of(pg, "IS", "DMS")) == frozenset("ADE")
        assert oracle.community(nodes_of(pg, "CM", "IS")) == frozenset()

    def test_verifications_unchanged_from_parent(self):
        instances = {name: pg for name, pg, _ in seeded_instances()}
        for (name, q, k), expected in PARENT_VERIFICATIONS.items():
            got = {
                m: pcs(instances[name], q, k, method=m).num_verifications
                for m in ALL_METHODS
            }
            assert got == expected, name
