"""Cross-algorithm equivalence: the load-bearing correctness suite.

All five PCS algorithms must return the same {maximal subtree → community}
map on any input; additionally a brute-force oracle (full enumeration over
ancestor-closed subsets, pairwise maximality) pins down the ground truth on
small instances. Randomised instances cover flat, deep and themed profile
shapes; hypothesis drives the structured generation.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import PCS_METHODS, ProfiledGraph, as_vertex_subtree_map, pcs
from repro.graph import gnp_graph, k_core_within
from repro.ptree import PTree, Taxonomy, enumerate_subtrees


def random_taxonomy(rng: random.Random, n: int) -> Taxonomy:
    tax = Taxonomy()
    for i in range(1, n):
        tax.add(f"L{i}", parent=rng.randrange(i))
    return tax


def random_instance(seed: int, themed: bool = False):
    """One random profiled graph plus a query (q, k)."""
    rng = random.Random(seed)
    tax = random_taxonomy(rng, rng.randint(4, 12))
    n = rng.randint(8, 30)
    g = gnp_graph(n, rng.uniform(0.15, 0.45), seed=rng.randrange(10**9))
    profiles = {}
    if themed:
        theme = tax.closure(
            rng.sample(range(tax.num_nodes), min(3, tax.num_nodes - 1)) or [0]
        )
        members = set(rng.sample(range(n), max(3, n // 2)))
    for v in range(n):
        count = rng.randint(0, min(7, tax.num_nodes - 1))
        nodes = rng.sample(range(tax.num_nodes), count) if count else []
        labels = tax.closure(nodes + [0])
        if themed and v in members:
            labels |= theme
        profiles[v] = labels
    pg = ProfiledGraph(g, tax, profiles, validate=False)
    q = rng.randrange(n)
    k = rng.randint(1, 3)
    return pg, q, k


def brute_force(pg: ProfiledGraph, q, k):
    base = PTree(pg.taxonomy, pg.labels(q), _validated=True)
    feasible = {}
    for sub in enumerate_subtrees(base, include_empty=False):
        community = k_core_within(pg.graph, pg.vertices_with_subtree(sub), k, q=q)
        if community:
            feasible[sub] = community
    return {
        t: c for t, c in feasible.items() if not any(t < t2 for t2 in feasible)
    }


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_flat_instances(self, seed):
        pg, q, k = random_instance(seed)
        expected = brute_force(pg, q, k)
        for method in PCS_METHODS:
            got = as_vertex_subtree_map(pcs(pg, q, k, method=method))
            assert got == expected, f"{method} diverged (seed={seed})"

    @pytest.mark.parametrize("seed", range(12, 20))
    def test_themed_instances(self, seed):
        pg, q, k = random_instance(seed, themed=True)
        expected = brute_force(pg, q, k)
        for method in PCS_METHODS:
            got = as_vertex_subtree_map(pcs(pg, q, k, method=method))
            assert got == expected, f"{method} diverged (seed={seed})"


class TestPairwiseAgreement:
    """On larger instances brute force is too slow; methods must still agree."""

    @pytest.mark.parametrize("seed", range(3))
    def test_methods_agree_on_synthetic_dataset(self, seed):
        from repro.datasets import SyntheticConfig, synthetic_profiled_graph
        from repro.datasets.taxonomies import synthetic_taxonomy

        tax = synthetic_taxonomy(120, seed=seed)
        config = SyntheticConfig(
            num_vertices=120,
            num_communities=8,
            avg_community_size=14,
            theme_size=5,
            tokens_per_vertex=2,
        )
        pg, _ = synthetic_profiled_graph(tax, config, seed=seed)
        rng = random.Random(seed)
        queries = rng.sample(sorted(pg.vertices()), 5)
        for q in queries:
            reference = None
            for method in PCS_METHODS:
                got = as_vertex_subtree_map(pcs(pg, q, 3, method=method))
                if reference is None:
                    reference = got
                else:
                    assert got == reference, f"{method} diverged at q={q}"


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_all_methods_agree(seed):
    """Hypothesis: equivalence holds for arbitrary random instances."""
    pg, q, k = random_instance(seed)
    expected = brute_force(pg, q, k)
    for method in PCS_METHODS:
        got = as_vertex_subtree_map(pcs(pg, q, k, method=method))
        assert got == expected


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_result_invariants(seed):
    """Every returned community satisfies the four Problem-1 properties."""
    pg, q, k = random_instance(seed)
    result = pcs(pg, q, k, method="adv-P")
    for community in result:
        vertices = community.vertices
        subtree = community.subtree.nodes
        # connectivity + membership
        assert q in vertices
        assert pg.graph.component_of(q, within=vertices) == vertices
        # structure cohesiveness
        for v in vertices:
            deg = sum(1 for u in pg.graph.neighbors(v) if u in vertices)
            assert deg >= k
        # profile cohesiveness: every member carries the subtree, and the
        # subtree equals the members' maximal common subtree
        common = None
        for v in vertices:
            labels = pg.labels(v)
            assert subtree <= labels
            common = labels if common is None else common & labels
        assert subtree == common
        # maximal structure: Gk[T] is the largest qualifying subgraph
        assert vertices == k_core_within(
            pg.graph, pg.vertices_with_subtree(subtree), k, q=q
        )


@pytest.mark.parametrize("k", [1, 3, 6, 8])
def test_all_methods_equal_index_free_basic_across_k(k):
    """All six methods equal ``basic`` recomputed on the object backend.

    The share of candidate sets that are final without a peel (see
    ``repro.core.feasibility``) depends on k, so the sweep covers a k
    below, at and above the dataset's typical core numbers.
    """
    from repro.core.search import ALL_METHODS
    from repro.datasets import load_dataset
    from repro.graph.csr import backend_override

    pg = load_dataset("acmdl", scale=0.01)
    queries = random.Random(k).sample(sorted(pg.vertices(), key=repr), 12)
    with backend_override("object"):
        reference_pg = load_dataset("acmdl", scale=0.01)
        expected = {
            q: as_vertex_subtree_map(pcs(reference_pg, q, k, method="basic"))
            for q in queries
        }
    assert sum(map(bool, expected.values())) >= 6  # not vacuous at any k
    for method in ALL_METHODS:
        for q in queries:
            got = as_vertex_subtree_map(pcs(pg, q, k, method=method))
            assert got == expected[q], f"{method} diverged at q={q!r}, k={k}"
