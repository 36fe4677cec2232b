"""Tests for the CP-tree index."""

import hashlib
import random

import pytest

from repro.datasets import fig1_profiled_graph, load_dataset, simple_profiled_graph
from repro.datasets.taxonomies import synthetic_taxonomy
from repro.errors import InvalidInputError, LabelNotFoundError
from repro.graph import connected_k_core
from repro.graph.csr import backend_override
from repro.index import CPTree
from repro.storage import encode_payload


@pytest.fixture
def fig1():
    return fig1_profiled_graph()


@pytest.fixture
def fig1_index(fig1):
    return CPTree(fig1.graph, fig1.all_labels(), fig1.taxonomy)


class TestConstruction:
    def test_labels_indexed(self, fig1, fig1_index):
        # every label used by some vertex gets a CP node
        used = set()
        for v in fig1.vertices():
            used |= fig1.labels(v)
        assert set(fig1_index.labels()) == used
        assert fig1_index.num_labels == len(used)

    def test_vertices_with_label(self, fig1, fig1_index):
        tax = fig1.taxonomy
        ml = tax.id_of("ML")
        expected = frozenset(
            v for v in fig1.vertices() if ml in fig1.labels(v)
        )
        assert fig1_index.vertices_with_label(ml) == expected

    def test_cp_node_linking_follows_taxonomy(self, fig1, fig1_index):
        tax = fig1.taxonomy
        ml_node = fig1_index.node(tax.id_of("ML"))
        assert ml_node.parent is fig1_index.node(tax.id_of("CM"))
        cm_node = fig1_index.node(tax.id_of("CM"))
        child_labels = {c.label for c in cm_node.children}
        assert tax.id_of("ML") in child_labels

    def test_unknown_vertex_rejected(self, fig1):
        labels = dict(fig1.all_labels())
        labels["ZZ"] = frozenset({0})
        with pytest.raises(InvalidInputError):
            CPTree(fig1.graph, labels, fig1.taxonomy)

    def test_non_closed_profile_rejected(self, fig1):
        tax = fig1.taxonomy
        labels = dict(fig1.all_labels())
        labels["A"] = frozenset({tax.id_of("ML")})  # missing CM, r
        with pytest.raises(InvalidInputError):
            CPTree(fig1.graph, labels, tax, validate=True)

    def test_node_unknown_label_raises(self, fig1_index):
        with pytest.raises(LabelNotFoundError):
            fig1_index.node(9999)


class TestHeadMap:
    def test_head_labels_are_ptree_leaves(self, fig1, fig1_index):
        tax = fig1.taxonomy
        for v in fig1.vertices():
            labels = fig1.labels(v)
            heads = fig1_index.head_labels(v)
            for x in heads:
                assert x in labels
                assert not any(c in labels for c in tax.children(x))

    def test_restore_ptree_roundtrip(self, fig1, fig1_index):
        for v in fig1.vertices():
            assert fig1_index.restore_ptree(v) == fig1.labels(v)

    def test_unknown_vertex_raises(self, fig1_index):
        with pytest.raises(InvalidInputError):
            fig1_index.restore_ptree("nope")
        with pytest.raises(InvalidInputError):
            fig1_index.head_labels("nope")


class TestGet:
    """I.get(k, q, t) must equal the k-ĉore of the label-induced subgraph."""

    def test_fig1_examples(self, fig1, fig1_index):
        tax = fig1.taxonomy
        # vertices with CM: A, B, C, D, G -- edges: A-B, A-D, B-C, B-D, C-D
        cm = tax.id_of("CM")
        assert fig1_index.get(2, "D", cm) == frozenset("ABCD")
        # vertices with ML: B, C, D form a triangle
        ml = tax.id_of("ML")
        assert fig1_index.get(2, "D", ml) == frozenset("BCD")
        # IS: A, D, E, F, H; A-D-E triangle, F,H not adjacent to it
        is_ = tax.id_of("IS")
        assert fig1_index.get(2, "D", is_) == frozenset("ADE")

    def test_get_unused_label_empty(self, fig1_index):
        assert fig1_index.get(1, "D", 999999) == frozenset()

    def test_get_vertex_without_label(self, fig1, fig1_index):
        # Regression: q not carrying the label must yield the empty set at
        # every k (including k=0), never raise — the CL-tree lookup for an
        # absent vertex short-circuits before touching core numbers.
        ml = fig1.taxonomy.id_of("ML")
        assert "ML" not in fig1.ptree("E").names()
        for k in (0, 1, 2, 5):
            assert fig1_index.get(k, "E", ml) == frozenset()

    def test_get_unknown_vertex_empty(self, fig1, fig1_index):
        ml = fig1.taxonomy.id_of("ML")
        assert fig1_index.get(1, "not-a-vertex", ml) == frozenset()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_cross_check(self, seed):
        tax = synthetic_taxonomy(30, seed=seed)
        pg = simple_profiled_graph(tax, 40, seed=seed, edge_probability=0.2)
        index = CPTree(pg.graph, pg.all_labels(), tax)
        rng = random.Random(seed)
        for _ in range(30):
            label = rng.randrange(tax.num_nodes)
            q = rng.randrange(40)
            k = rng.randint(0, 4)
            members = [v for v in pg.vertices() if label in pg.labels(v)]
            sub = pg.graph.subgraph(members)
            expected = (
                connected_k_core(sub, q, k) if q in sub else frozenset()
            )
            assert index.get(k, q, label) == expected


def naive_core_numbers(graph, members):
    """Core numbers of ``G[members]`` by the definition: repeatedly remove a
    vertex of minimum remaining degree; a vertex's core number is the
    largest minimum degree seen up to its removal."""
    alive = set(members)
    core = {}
    level = 0
    while alive:
        d, v = min((sum(1 for u in graph.neighbors(x) if u in alive), x) for x in alive)
        level = max(level, d)
        core[v] = level
        alive.remove(v)
    return core


class TestBuildIsDefinitional:
    """The whole build, checked exhaustively on small graphs."""

    def test_acmdl_index_bytes_are_pinned(self):
        # The snapshot bytes of the acmdl 0.01 index, as the dict-based
        # build produced them; any rewrite of the build must keep them.
        pg = load_dataset("acmdl", scale=0.01, seed=20190116)
        digest = hashlib.sha256(encode_payload(pg, pg.index())).hexdigest()
        assert digest == (
            "545d1c01444eccc4d193e780eb9f4dc82906c6fe9d6eeb3ae049b14b4cff005a"
        )

    @pytest.mark.parametrize("backend", ["object", "csr"])
    @pytest.mark.parametrize("seed", range(5))
    def test_every_get_is_the_label_k_core(self, backend, seed):
        rng = random.Random(seed)
        tax = synthetic_taxonomy(12, seed=seed)
        n = rng.randint(20, 40)
        pg = simple_profiled_graph(
            tax, n, seed=seed, edge_probability=rng.choice([0.1, 0.2, 0.3]),
            labels_per_vertex=rng.randint(1, 4),
        )
        with backend_override(backend):
            index = CPTree(pg.graph, pg.all_labels(), tax)
        with backend_override("object"):
            for label in range(tax.num_nodes):
                members = [v for v in pg.vertices() if label in pg.labels(v)]
                sub = pg.graph.subgraph(members)
                if members:
                    tree = index.node(label).cltree
                    assert {v: tree.core_number(v) for v in members} == (
                        naive_core_numbers(pg.graph, members)
                    )
                for q in pg.vertices():
                    for k in range(6):
                        expected = (
                            connected_k_core(sub, q, k) if q in sub else frozenset()
                        )
                        assert index.get(k, q, label) == expected


class TestProfiledGraphIntegration:
    def test_index_cached(self, fig1):
        first = fig1.index()
        assert fig1.index() is first
        rebuilt = fig1.index(rebuild=True)
        assert rebuilt is not first

    def test_index_num_vertices(self, fig1):
        assert fig1.index().num_vertices == fig1.num_vertices
