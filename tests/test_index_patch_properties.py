"""Property tests for in-place index maintenance: every edit kind patches.

An edge or a label, gained or lost, is absorbed by the CL-trees it touches
(:meth:`CLTree.edge_inserted` / :meth:`~CLTree.vertex_joined` and their
inverses :meth:`~CLTree.edge_removed` / :meth:`~CLTree.vertex_left`)
instead of rebuilding them. The reference throughout is a fresh build:
after *every* step a patched tree must equal
``CLTree(graph, vertices=members)``, and a maintained CP-tree must be
byte-equal to a fresh one through the snapshot codec, whose rows are
canonical.

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
from repro.graph.core import core_numbers_within, removal_fallers
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


def hub_carrier_graph(rng: random.Random, n: int):
    """K4s, and a hub with one edge into each of three of them: losing a
    hub edge breaks the 3-ĉore into three pieces at once."""
    graph = Graph()
    graph.add_vertices(range(n))
    cliques = [range(a, a + 4) for a in range(0, n - 4, 4)]
    graph.add_edges((a, b) for clique in cliques for a in clique for b in clique if a < b)
    for clique in rng.sample(cliques, min(3, len(cliques))):
        graph.add_edge(n - 1, rng.choice(clique))
    return graph, set(range(n))


def virtual(tree: CLTree) -> bool:
    return tree.root.core == -1 and bool(tree.root.children)


def removal_shapes(before: CLTree, after: CLTree, u, v, seen: set) -> None:
    """Which structural cases removing edge ``{u, v}`` produced."""
    level = min(before.core_number(u), before.core_number(v))
    home = before.kcore_node(u, level)
    old = before.subtree_vertices(home)
    fallen = {x for x in old if after.core_number(x) < before.core_number(x)}
    if fallen and (home.parent is None or home.parent.core != level - 1):
        seen.add("new level-(K-1) node")
    pieces = {after.kcore_node(x, level) for x in old - fallen}
    if len(pieces) >= 3:
        seen.add("level-K split into >= 3 pieces")
    if any(piece.core > level for piece in pieces):
        seen.add("level-K node dissolves")
    for c in range(level):
        if len({after.kcore_node(x, c) for x in before.kcore_vertices(u, c)}) > 1:
            seen.add("split below K")
            break
    if virtual(after) and not virtual(before):
        seen.add("virtual root appears on a removal")


def run_edits(seed: int, n: int, p: float, steps: int, seen=None):
    """Random insertions, removals, joins and leaves, checked one by one.

    ``seen`` collects which structural cases the run produced.
    """
    rng = random.Random(seed)
    if p is None:
        graph, members = hub_carrier_graph(rng, n)
    else:
        graph, members = random_carrier_graph(rng, n, p)
    tree = CLTree(graph, vertices=members)
    assert_equals_fresh(tree, graph, members, "(initial build)")
    for step in range(steps):
        before = tree
        before_shape = shape(before)
        before_cores = dict(before._core_of)
        roll = rng.random()
        outside = [x for x in range(n) if x not in members]
        edges = sorted(graph.edges())
        op = None
        if outside and roll < 0.15:
            w = rng.choice(outside)
            tree = tree.vertex_joined(graph.adjacency(), w)
            members.add(w)
            assert tree is not before
        elif members and roll < 0.3:
            op = "leave"
            w = rng.choice(sorted(members))
            if rng.random() < 0.5:  # a lost label: w stays in the graph
                tree = tree.vertex_left(graph.adjacency(), w)
            else:  # a removed vertex: the graph no longer holds it
                neighbours = set(graph.neighbors(w))
                graph.remove_vertex(w)
                graph.add_vertex(w)
                tree = tree.vertex_left(graph.adjacency(), w, neighbours)
            members.discard(w)
            assert tree is not before
        elif edges and roll < 0.6:
            u, v = rng.choice(edges)
            graph.remove_edge(u, v)
            if u in members and v in members:
                op = "remove"
                tree = tree.edge_removed(graph.adjacency(), u, v)
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or graph.has_edge(u, v):
                continue
            graph.add_edge(u, v)
            if u in members and v in members:
                op = "insert"
                tree = tree.edge_inserted(graph.adjacency(), u, v)
        # Copy on write: whatever happened, the old tree did not move.
        assert shape(before) == before_shape and before._core_of == before_cores
        assert_equals_fresh(tree, graph, members, f"(seed {seed}, step {step})")
        if seen is None:
            continue
        if tree is before:
            seen.add(f"unchanged {op}")
        if any(node.core == 0 for node in tree.nodes()):
            seen.add("isolated member")
        if virtual(tree) and not virtual(before):
            seen.add("virtual root appears")
        if virtual(before) and not virtual(tree):
            seen.add("virtual root disappears")
        if op == "insert" and tree._core_of != before_cores:
            seen.add("cores rise")
        if (
            op == "insert"
            and tree is not before
            and tree._core_of == before_cores
            and len(before_shape) - len(shape(tree)) >= 2
        ):
            seen.add("merge across several levels")
        if op == "remove":
            removal_shapes(before, tree, u, v, seen)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 28),
    p=st.sampled_from([0.0, 0.05, 0.12, 0.25, 0.5, None]),
)
def test_patched_cltree_equals_fresh_after_every_step(seed, n, p):
    run_edits(seed, n, p, steps=40)


def test_every_structural_case_is_generated():
    seen = set()
    for seed in range(60):
        rng = random.Random(seed)
        run_edits(seed, rng.randrange(2, 24),
                  rng.choice([0.0, 0.05, 0.12, 0.3, 0.5]), steps=60, seen=seen)
        run_edits(seed, rng.randrange(13, 24), None, steps=20, seen=seen)
    assert seen >= {
        "unchanged insert",
        "unchanged remove",
        "isolated member",
        "virtual root appears",
        "virtual root disappears",
        "cores rise",
        "merge across several levels",
        "level-K split into >= 3 pieces",
        "split below K",
        "level-K node dissolves",
        "new level-(K-1) node",
        "virtual root appears on a removal",
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


def test_leaving_vertex_still_sees_its_unremoved_edges():
    # The mirror case: 3 leaves K4. Removing {3, 0} first must still count
    # {3, 1} and {3, 2}, or the triangle falls one removal too early.
    graph = Graph([(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)])
    tree = CLTree(graph, vertices={0, 1, 2, 3}).vertex_left(graph.adjacency(), 3)
    assert_equals_fresh(tree, graph, {0, 1, 2})
    assert tree.core_number(0) == 2


def test_hub_loss_splits_level_k_into_three_pieces():
    # Three K4s hang off one hub by one edge each, so the hub has core 3.
    # Losing one of its edges drops it to core 2 and breaks the 3-ĉore
    # into the three K4s; the hub keeps two of them at level 2.
    edges = [(a + i, a + j) for a in (0, 4, 8) for i in range(4) for j in range(i)]
    edges += [(12, 0), (12, 4), (12, 8)]
    graph = Graph(edges)
    members = set(graph.vertex_set())
    tree = CLTree(graph, vertices=members)
    assert tree.core_number(12) == 3
    graph.remove_edge(12, 0)
    tree = tree.edge_removed(graph.adjacency(), 12, 0)
    assert_equals_fresh(tree, graph, members)
    assert tree.core_number(12) == 2
    assert len({tree.kcore_node(x, 3) for x in range(12)}) == 3


# ----------------------------------------------------------------------
# (b) the traversal: removal fallers equal a fresh decomposition
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 30),
    p=st.sampled_from([0.05, 0.12, 0.25, 0.5, 0.8]),
    restricted=st.booleans(),
)
def test_removal_fallers_equal_fresh_decomposition(seed, n, p, restricted):
    rng = random.Random(seed)
    graph, members = random_carrier_graph(rng, n, p)
    if not restricted:
        members = set(range(n))
    for _ in range(10):
        edges = [(u, v) for u, v in graph.edges() if u in members and v in members]
        if not edges:
            return
        u, v = rng.choice(sorted(edges))
        old = core_numbers_within(graph, members)
        graph.remove_edge(u, v)
        level, fallen = removal_fallers(graph.adjacency(), old, u, v)
        new = core_numbers_within(graph, members)
        assert level == min(old[u], old[v])
        assert fallen == {x for x in members if new[x] != old[x]}
        assert all(new[x] == level - 1 for x in fallen)


# ----------------------------------------------------------------------
# (c) ProfiledGraph level: all five ops, byte-equal after every step
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
    edges = sorted(pg.graph.edges())
    for _ in range(size):
        roll = rng.random()
        if roll < 0.3:
            u, v = rng.choice(alive), rng.choice(alive)
            if u != v:
                ops.append(("add_edge", u, v))
        elif roll < 0.5:
            u, v = rng.choice(edges) if edges and rng.random() < 0.7 else (
                rng.choice(alive), rng.choice(alive))
            if u != v and u in alive and v in alive:
                ops.append(("remove_edge", u, v))
        elif roll < 0.75:
            labels = rng.sample(range(tax.num_nodes), rng.randrange(0, 4))
            ops.append(("set_profile", rng.choice(alive), labels))
        elif roll < 0.88:
            labels = rng.sample(range(tax.num_nodes), rng.randrange(0, 3))
            ops.append(("add_vertex", next_id[0], labels))
            ops.append(("add_edge", next_id[0], rng.choice(alive)))
            alive.append(next_id[0])
            next_id[0] += 1
        elif len(alive) > 6:
            victim = alive.pop(rng.randrange(len(alive)))
            ops.append(("remove_vertex", victim))
    return ops


def run_batches(seed: int, batch_size: int, batches: int = 6, seen=None):
    """Apply random batches through the engine, one edit at a time, and
    check the index after every edit; returns the op kinds used."""
    rng = random.Random(seed)
    pg = small_instance(seed % 50)
    explorer = CommunityExplorer(pg)
    next_id = [1000]
    kinds = set()
    for _ in range(batches):
        ops = random_batch(rng, pg, batch_size, next_id)
        kinds |= {op[0] for op in ops}
        labels_before = set(pg.index().labels())
        created = set()
        for op in ops:
            explorer.apply_updates([op])
            assert_byte_equal_to_fresh(pg)
            labels = set(pg.index().labels())
            if seen is not None and created - labels:
                seen.add("CP-node created and unlinked in one batch")
            created = (created | labels) - labels_before
    return kinds


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6), batch_size=st.integers(1, 8))
def test_batches_of_all_ops_end_byte_equal_to_fresh_build(seed, batch_size):
    run_batches(seed, batch_size)


def test_batches_mix_all_five_ops():
    kinds = set()
    seen = set()
    for seed in range(8):
        kinds |= run_batches(seed, batch_size=8, seen=seen)
    assert kinds == {
        "add_edge", "remove_edge", "set_profile", "add_vertex", "remove_vertex"
    }
    assert seen == {"CP-node created and unlinked in one batch"}


def test_whole_batches_end_byte_equal_to_fresh_build():
    rng = random.Random(11)
    pg = small_instance(11)
    explorer = CommunityExplorer(pg)
    next_id = [1000]
    for _ in range(10):
        explorer.apply_updates(random_batch(rng, pg, 8, next_id))
        assert_byte_equal_to_fresh(pg)


class TestNamedInterleavings:
    """Orders of edits on one label that must each leave a fresh build."""

    def test_insert_after_a_loss_on_the_same_label(self):
        pg = fig1_profiled_graph()
        tax = pg.taxonomy
        pg.index()
        ml = tax.id_of("ML")
        carriers = sorted(pg.index().vertices_with_label(ml))
        loser, u, v = carriers[0], carriers[1], carriers[2]
        if pg.graph.has_edge(u, v):
            pg.remove_edge(u, v)
        tree = pg.index().node(ml).cltree
        pg.set_profile(loser, set(pg.labels(loser)) - {ml})
        assert pg.add_edge(u, v)
        # The loss left the tree at once; the insertion patches the tree
        # without the vertex that left.
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
        assert_byte_equal_to_fresh(pg)
        assert pg.add_edge(newcomer, partner)
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
        index = pg.index()
        unused = next(t for t in range(tax.num_nodes) if not index.has_label(t))
        vertex = sorted(pg.graph.vertex_set())[0]
        pg.set_profile(vertex, set(pg.labels(vertex)) | {unused})
        # Created on the spot (the vertex inserted into an empty tree),
        # linked under its parent label, in the same index.
        assert pg.index() is index and index.has_label(unused)
        assert index.node(unused).vertices == frozenset({vertex})
        assert_byte_equal_to_fresh(pg)
        pg.set_profile(vertex, set(pg.labels(vertex)) - {unused})
        assert not index.has_label(unused)
        assert_byte_equal_to_fresh(pg)


# ----------------------------------------------------------------------
# (d) copy on write
# ----------------------------------------------------------------------
def reader_keeps_answers(removal: bool) -> None:
    pg = small_instance(5, n=14)
    root = pg.taxonomy.root
    index = pg.index()
    vertices = sorted(pg.graph.vertex_set())
    if removal:
        candidates = sorted(pg.graph.edges())
    else:
        candidates = [(u, v) for u in vertices for v in vertices
                      if u < v and not pg.graph.has_edge(u, v)]
    for u, v in candidates:
        held = index.node(root).cltree
        members = sorted(index.node(root).vertices)
        answers = {
            (q, k): held.kcore_vertices(q, k)
            for q in members for k in range(MAX_K + 1)
        }
        # Drop the memo so the old tree must answer from its own arrays.
        for node in held.nodes():
            node._cache = None
        if removal:
            pg.remove_edge(u, v)
        else:
            pg.add_edge(u, v)
        if index.node(root).cltree is held:
            continue  # this edit changed nothing; try another
        for (q, k), expected in answers.items():
            assert held.kcore_vertices(q, k) == expected
        assert_byte_equal_to_fresh(pg)
        return
    pytest.fail("no edit changed the root label's CL-tree")


def test_reader_holding_the_old_tree_keeps_its_answers():
    reader_keeps_answers(removal=False)


def test_reader_holding_the_old_tree_keeps_its_answers_across_a_removal():
    reader_keeps_answers(removal=True)


# ----------------------------------------------------------------------
# (e) a warm index peels nothing, whatever the edit
# ----------------------------------------------------------------------
@pytest.fixture()
def peel_counter(monkeypatch):
    calls = []
    for name in ("core_numbers", "core_numbers_within"):
        real = getattr(cltree_module, name)

        def counting(*args, real=real):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(cltree_module, name, counting)
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


def test_batch_of_every_edit_kind_peels_nothing(peel_counter):
    pg = small_instance(7)
    explorer = CommunityExplorer(pg)
    explorer.warm()
    tax = pg.taxonomy
    u, v = next(
        (u, v) for u, v in sorted(pg.graph.edges()) if pg.labels(u) & pg.labels(v)
    )
    (a, b), = absent_edges(pg, 1)
    loser = next(x for x in sorted(pg.graph.vertex_set()) if len(pg.labels(x)) > 1)
    victim = next(x for x in sorted(pg.graph.vertex_set())
                  if x not in (u, v, a, b, loser) and pg.labels(x))
    unused = next(t for t in range(tax.num_nodes) if not pg.index().has_label(t))
    ops = [
        ("add_edge", a, b),
        ("remove_edge", u, v),
        ("set_profile", loser, [tax.root]),
        ("add_vertex", 999, [unused]),
        ("add_edge", 999, a),
        ("remove_vertex", victim),
    ]
    expected = (
        (pg.labels(a) & pg.labels(b)) | (pg.labels(u) & pg.labels(v))
        | (pg.labels(loser) - {tax.root}) | tax.closure([unused]) | pg.labels(victim)
    )
    del peel_counter[:]
    receipt = explorer.apply_updates(ops)
    assert receipt.applied == len(ops)
    assert peel_counter == []
    assert receipt.repaired_labels == len(expected | (pg.labels(999) & pg.labels(a)))
    del peel_counter[:]  # the check below builds a whole fresh index
    assert_byte_equal_to_fresh(pg)
