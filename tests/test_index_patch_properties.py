"""Property tests for in-place index maintenance (insertion patches).

An ``add_edge`` or a gained label is absorbed by the CL-trees it touches
(:meth:`CLTree.edge_inserted` / :meth:`CLTree.vertex_joined`) instead of
rebuilding them. The reference throughout is a fresh build: after *every*
step a patched tree must equal ``CLTree(graph, vertices=members)``, and a
maintained CP-tree must be byte-equal to a fresh one through the snapshot
codec, whose rows are canonical.

CI runs this file with ``--hypothesis-seed=0`` so a red build replays.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.index.cltree as cltree_module
from repro.bench import index_matches_fresh_build
from repro.datasets import fig1_profiled_graph, simple_profiled_graph
from repro.datasets.taxonomies import synthetic_taxonomy
from repro.engine import CommunityExplorer
from repro.graph import Graph
from repro.index.cltree import CLTree
from repro.storage import load_snapshot_bytes, snapshot_bytes

MAX_K = 5


# ----------------------------------------------------------------------
# (a) CL-tree level: every step equals a fresh build
# ----------------------------------------------------------------------
def shape(tree: CLTree):
    """Canonical shape: ``(core, anchored set, parent's (core, anchored set))``."""
    rows = set()
    for node in tree.nodes():
        parent = node.parent
        rows.add(
            (
                node.core,
                frozenset(node.vertices),
                None if parent is None else (parent.core, frozenset(parent.vertices)),
            )
        )
    return rows


def assert_equals_fresh(tree: CLTree, graph: Graph, members, context=""):
    fresh = CLTree(graph, vertices=members)
    assert tree._core_of == fresh._core_of, f"core numbers differ {context}"
    assert shape(tree) == shape(fresh), f"shape differs {context}"
    assert set(tree._node_of) == set(members)
    for q in members:
        assert q in tree._node_of[q].vertices
        for k in range(MAX_K + 1):
            assert tree.kcore_vertices(q, k) == fresh.kcore_vertices(q, k), (
                f"k-ĉore of {q!r} at k={k} differs {context}"
            )


def random_carrier_graph(rng: random.Random, n: int, p: float):
    graph = Graph()
    graph.add_vertices(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                graph.add_edge(i, j)
    members = set(rng.sample(range(n), rng.randrange(0, n + 1)))
    return graph, members


def run_insertions(seed: int, n: int, p: float, steps: int, seen=None):
    """Random ``edge_inserted`` / ``vertex_joined`` steps, checked one by one.

    ``seen`` collects which structural cases the run produced.
    """
    rng = random.Random(seed)
    graph, members = random_carrier_graph(rng, n, p)
    tree = CLTree(graph, vertices=members)
    assert_equals_fresh(tree, graph, members, "(initial build)")
    for step in range(steps):
        before = tree
        before_shape = shape(before)
        before_cores = dict(before._core_of)
        outside = [x for x in range(n) if x not in members]
        if outside and rng.random() < 0.3:
            w = rng.choice(outside)
            tree = tree.vertex_joined(graph.adjacency(), w)
            members.add(w)
            assert tree is not before
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or graph.has_edge(u, v):
                continue
            graph.add_edge(u, v)
            if u in members and v in members:
                tree = tree.edge_inserted(graph.adjacency(), u, v)
        # Copy on write: whatever happened, the old tree did not move.
        assert shape(before) == before_shape and before._core_of == before_cores
        assert_equals_fresh(tree, graph, members, f"(seed {seed}, step {step})")
        if seen is not None:
            virtual_before = before.root.core == -1 and bool(before.root.children)
            virtual_after = tree.root.core == -1 and bool(tree.root.children)
            rose = tree._core_of != {**before_cores, **{
                w: 0 for w in tree._core_of if w not in before_cores}}
            if tree is before:
                seen.add("unchanged")
            if any(node.core == 0 for node in tree.nodes()):
                seen.add("isolated member")
            if virtual_after and not virtual_before:
                seen.add("virtual root appears")
            if virtual_before and not virtual_after:
                seen.add("virtual root disappears")
            if rose:
                seen.add("cores rise")
            if (
                tree is not before
                and not rose
                and len(tree._core_of) == len(before_cores)
                and len(before_shape) - len(shape(tree)) >= 2
            ):
                seen.add("merge across several levels")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 28),
    p=st.sampled_from([0.0, 0.05, 0.12, 0.25, 0.5]),
)
def test_patched_cltree_equals_fresh_after_every_step(seed, n, p):
    run_insertions(seed, n, p, steps=40)


def test_every_structural_case_is_generated():
    seen = set()
    for seed in range(60):
        rng = random.Random(seed)
        run_insertions(seed, rng.randrange(2, 24),
                       rng.choice([0.0, 0.05, 0.12, 0.3]), steps=60, seen=seen)
    assert seen >= {
        "unchanged",
        "isolated member",
        "virtual root appears",
        "virtual root disappears",
        "cores rise",
        "merge across several levels",
    }


def test_joining_vertex_does_not_see_its_uninserted_edges():
    # w joins a label whose members already neighbour it. Inserting {w, 0}
    # first must not count {w, 1} and {w, 2} from either side — with them
    # visible the traversal lifts the triangle one insertion too early.
    graph = Graph([(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)])
    members = {0, 1, 2}
    tree = CLTree(graph, vertices=members).vertex_joined(graph.adjacency(), 3)
    members.add(3)
    assert_equals_fresh(tree, graph, members)
    assert tree.core_number(3) == 3


# ----------------------------------------------------------------------
# (b) ProfiledGraph level: batches of all five ops end byte-equal
# ----------------------------------------------------------------------
def assert_byte_equal_to_fresh(pg):
    """``snapshot_bytes`` of the maintained graph == the same graph, index
    built from scratch (the image every process boundary ships)."""
    maintained = snapshot_bytes(pg)
    fresh = load_snapshot_bytes(snapshot_bytes(pg, include_index=False))
    assert not fresh.has_index()
    fresh.index()
    assert snapshot_bytes(fresh) == maintained
    assert index_matches_fresh_build(pg)


def small_instance(seed: int, n: int = 16):
    taxonomy = synthetic_taxonomy(18, seed=seed)
    pg = simple_profiled_graph(taxonomy, n, seed=seed, edge_probability=0.25,
                               labels_per_vertex=2)
    pg.index()
    return pg


def random_batch(rng: random.Random, pg, size: int, next_id: list):
    tax = pg.taxonomy
    ops = []
    alive = sorted(pg.graph.vertex_set())
    for _ in range(size):
        roll = rng.random()
        if roll < 0.45:
            u, v = rng.choice(alive), rng.choice(alive)
            if u != v:
                ops.append(("add_edge", u, v))
        elif roll < 0.6:
            u, v = rng.choice(alive), rng.choice(alive)
            if u != v:
                ops.append(("remove_edge", u, v))
        elif roll < 0.8:
            labels = rng.sample(range(tax.num_nodes), rng.randrange(0, 4))
            ops.append(("set_profile", rng.choice(alive), labels))
        elif roll < 0.92:
            labels = rng.sample(range(tax.num_nodes), rng.randrange(0, 3))
            ops.append(("add_vertex", next_id[0], labels))
            ops.append(("add_edge", next_id[0], rng.choice(alive)))
            alive.append(next_id[0])
            next_id[0] += 1
        elif len(alive) > 6:
            victim = alive.pop(rng.randrange(len(alive)))
            ops.append(("remove_vertex", victim))
    return ops


def run_batches(seed: int, batch_size: int, batches: int = 6):
    """Apply random batches through the engine; returns the op kinds used."""
    rng = random.Random(seed)
    pg = small_instance(seed % 50)
    explorer = CommunityExplorer(pg)
    next_id = [1000]
    kinds = set()
    for _ in range(batches):
        ops = random_batch(rng, pg, batch_size, next_id)
        kinds |= {op[0] for op in ops}
        explorer.apply_updates(ops)
        assert pg.pending_repair_labels == 0
        assert_byte_equal_to_fresh(pg)
    return kinds


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6), batch_size=st.integers(1, 8))
def test_batches_of_all_ops_end_byte_equal_to_fresh_build(seed, batch_size):
    run_batches(seed, batch_size)


def test_batches_mix_all_five_ops():
    kinds = set()
    for seed in range(5):
        kinds |= run_batches(seed, batch_size=8)
    assert kinds == {
        "add_edge", "remove_edge", "set_profile", "add_vertex", "remove_vertex"
    }


class TestNamedInterleavings:
    """The orders in which a patch and a journaled rebuild can meet."""

    def test_insert_after_a_loss_on_the_same_label(self):
        pg = fig1_profiled_graph()
        tax = pg.taxonomy
        pg.index()
        ml = tax.id_of("ML")
        carriers = sorted(pg.index().vertices_with_label(ml))
        loser, u, v = carriers[0], carriers[1], carriers[2]
        if pg.graph.has_edge(u, v):
            pg.remove_edge(u, v)
            pg.index()
        tree = pg.index().node(ml).cltree
        pg.set_profile(loser, set(pg.labels(loser)) - {ml})
        assert pg.add_edge(u, v)
        # ML was journaled by the loss; the insertion must not patch a tree
        # that still holds the vertex that left.
        assert pg.index().node(ml).cltree is not tree
        assert loser not in pg.index().node(ml).cltree
        assert_byte_equal_to_fresh(pg)

    def test_gain_followed_by_an_insert_on_the_gained_label(self):
        pg = fig1_profiled_graph()
        tax = pg.taxonomy
        pg.index()
        ml = tax.id_of("ML")
        carriers = pg.index().vertices_with_label(ml)
        newcomer = next(v for v in sorted(pg.graph.vertex_set()) if v not in carriers)
        partner = next(
            v for v in sorted(carriers) if not pg.graph.has_edge(newcomer, v)
        )
        pg.set_profile(newcomer, set(pg.labels(newcomer)) | {ml})
        assert pg.add_edge(newcomer, partner)
        assert pg.pending_repair_labels == 0  # both edits patched in place
        assert newcomer in pg.index().vertices_with_label(ml)
        assert_byte_equal_to_fresh(pg)

    def test_insert_whose_endpoint_is_later_removed(self):
        pg = small_instance(3)
        u, v = next(
            (u, v)
            for u in sorted(pg.graph.vertex_set())
            for v in sorted(pg.graph.vertex_set())
            if u < v and not pg.graph.has_edge(u, v) and pg.labels(u) & pg.labels(v)
        )
        assert pg.add_edge(u, v)
        pg.remove_vertex(v)
        assert_byte_equal_to_fresh(pg)
        assert v not in pg.index().node(pg.taxonomy.root).cltree

    def test_vertex_removed_and_added_back_in_one_batch(self):
        pg = small_instance(4)
        victim = sorted(pg.graph.vertex_set())[0]
        labels = sorted(pg.labels(victim))
        neighbour = sorted(pg.graph.neighbors(victim) or pg.graph.vertex_set() - {victim})[0]
        explorer = CommunityExplorer(pg)
        explorer.apply_updates([
            ("remove_vertex", victim),
            ("add_vertex", victim, labels),
            ("add_edge", victim, neighbour),
        ])
        assert_byte_equal_to_fresh(pg)

    def test_label_with_no_cp_node_is_built_not_patched(self):
        tax = synthetic_taxonomy(40, seed=8)
        pg = simple_profiled_graph(tax, 8, seed=8, labels_per_vertex=1)
        pg.index()
        unused = next(t for t in range(tax.num_nodes) if not pg.index().has_label(t))
        vertex = sorted(pg.graph.vertex_set())[0]
        pg.set_profile(vertex, set(pg.labels(vertex)) | {unused})
        assert pg.pending_repair_labels >= 1
        assert_byte_equal_to_fresh(pg)
        assert pg.index().has_label(unused)


# ----------------------------------------------------------------------
# (c) copy on write
# ----------------------------------------------------------------------
def test_reader_holding_the_old_tree_keeps_its_answers():
    pg = small_instance(5, n=14)
    root = pg.taxonomy.root
    index = pg.index()
    for u in sorted(pg.graph.vertex_set()):
        for v in sorted(pg.graph.vertex_set()):
            if u >= v or pg.graph.has_edge(u, v):
                continue
            held = index.node(root).cltree
            members = sorted(index.node(root).vertices)
            answers = {
                (q, k): held.kcore_vertices(q, k)
                for q in members for k in range(MAX_K + 1)
            }
            # Drop the memo so the old tree must answer from its own arrays.
            for node in held.nodes():
                node._cache = None
            pg.add_edge(u, v)
            if index.node(root).cltree is held:
                continue  # this insertion changed nothing; try another
            for (q, k), expected in answers.items():
                assert held.kcore_vertices(q, k) == expected
            assert_byte_equal_to_fresh(pg)
            return
    pytest.fail("no insertion changed the root label's CL-tree")


# ----------------------------------------------------------------------
# (d) what is patched peels nothing
# ----------------------------------------------------------------------
@pytest.fixture()
def peel_counter(monkeypatch):
    calls = []
    real = cltree_module.core_numbers_within

    def counting(graph, vertices):
        calls.append(1)
        return real(graph, vertices)

    monkeypatch.setattr(cltree_module, "core_numbers_within", counting)
    return calls


def absent_edges(pg, count):
    vertices = sorted(pg.graph.vertex_set())
    found = []
    for u in vertices:
        for v in vertices:
            if u < v and not pg.graph.has_edge(u, v) and pg.labels(u) & pg.labels(v):
                found.append((u, v))
                if len(found) == count:
                    return found
    raise AssertionError("graph too dense for the test")


def test_insert_only_batch_peels_nothing(peel_counter):
    pg = small_instance(6)
    explorer = CommunityExplorer(pg)
    explorer.warm()
    edges = absent_edges(pg, 5)
    touched = set()
    for u, v in edges:
        touched |= pg.labels(u) & pg.labels(v)
    del peel_counter[:]
    receipt = explorer.apply_updates([("add_edge", u, v) for u, v in edges])
    assert receipt.applied == 5
    assert peel_counter == []
    assert receipt.repaired_labels == len(touched)
    assert_byte_equal_to_fresh(pg)


def test_one_removal_peels_once_per_shared_label(peel_counter):
    pg = small_instance(7)
    explorer = CommunityExplorer(pg)
    explorer.warm()
    u, v = next(
        (u, v) for u, v in sorted(pg.graph.edges()) if pg.labels(u) & pg.labels(v)
    )
    (a, b), = absent_edges(pg, 1)
    shared = pg.labels(u) & pg.labels(v)
    del peel_counter[:]
    receipt = explorer.apply_updates([("add_edge", a, b), ("remove_edge", u, v)])
    assert len(peel_counter) == len(shared)
    assert receipt.repaired_labels == len(shared | (pg.labels(a) & pg.labels(b)))
    del peel_counter[:]  # the check below builds a whole fresh index
    assert_byte_equal_to_fresh(pg)
