"""Tests for dynamic maintenance (incremental cores, lazy CP-tree repair)."""

import random

import pytest

from repro.core import as_vertex_subtree_map, pcs
from repro.datasets import fig1_profiled_graph, simple_profiled_graph
from repro.datasets.taxonomies import synthetic_taxonomy
from repro.dynamic import DynamicCoreIndex
from repro.engine import CommunityExplorer
from repro.errors import InvalidInputError, VertexNotFoundError
from repro.graph import Graph, gnp_graph


class TestDynamicCoreIndex:
    def test_insert_raises_core(self):
        g = Graph([(0, 1), (1, 2)])
        index = DynamicCoreIndex(g)
        assert index.core(1) == 1
        index.insert(0, 2)  # closes the triangle
        assert index.core(0) == index.core(1) == index.core(2) == 2

    def test_remove_lowers_core(self):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        index = DynamicCoreIndex(g)
        index.remove(0, 1)
        assert index.core(0) == 1
        assert index.verify()

    def test_duplicate_and_missing_edges_are_noops(self):
        g = Graph([(0, 1)])
        index = DynamicCoreIndex(g)
        index.insert(0, 1)
        index.remove(5, 6)
        assert index.verify()

    def test_self_loop_rejected(self):
        index = DynamicCoreIndex(Graph())
        with pytest.raises(InvalidInputError):
            index.insert(3, 3)

    def test_add_and_remove_vertex(self):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        index = DynamicCoreIndex(g)
        index.add_vertex(9)
        assert index.core(9) == 0
        index.insert(9, 0)
        index.insert(9, 1)
        index.insert(9, 2)
        assert index.core(9) == 3
        index.remove_vertex(9)
        assert index.verify()
        with pytest.raises(VertexNotFoundError):
            index.core(9)

    def test_k_core_vertices_view(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (2, 3)])
        index = DynamicCoreIndex(g)
        assert index.k_core_vertices(2) == frozenset({0, 1, 2})

    def test_hook_forms_match_wrappers(self):
        # edge_inserted / edge_removed react to mutations the caller owns.
        g = Graph([(0, 1), (1, 2), (2, 0)])
        index = DynamicCoreIndex(g)
        g.add_edge(2, 3)
        index.edge_inserted(2, 3)
        assert index.verify()
        g.remove_edge(0, 1)
        index.edge_removed(0, 1)
        assert index.verify()

    def test_vertex_dropped_after_draining_edges(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (2, 3)])
        index = DynamicCoreIndex(g)
        for u in list(g.neighbors(3)):
            g.remove_edge(3, u)
            index.edge_removed(3, u)
        g.remove_vertex(3)
        index.vertex_dropped(3)
        assert 3 not in index.core_numbers()
        assert index.verify()

    def test_seeded_cores_skip_recomputation(self):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        seeded = DynamicCoreIndex(g, cores={0: 2, 1: 2, 2: 2})
        assert seeded.verify()
        seeded.insert(2, 3)
        assert seeded.verify()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_edit_sequences_stay_exact(self, seed):
        rng = random.Random(seed)
        g = gnp_graph(30, 0.12, seed=seed)
        index = DynamicCoreIndex(g)
        existing = [tuple(e) for e in g.edges()]
        for step in range(120):
            if existing and rng.random() < 0.45:
                u, v = existing.pop(rng.randrange(len(existing)))
                index.remove(u, v)
            else:
                u = rng.randrange(30)
                v = rng.randrange(30)
                if u == v:
                    continue
                if not g.has_edge(u, v):
                    existing.append((u, v))
                index.insert(u, v)
            if step % 20 == 0:
                assert index.verify(), f"diverged at step {step}"
        assert index.verify()


def _barbell_graph(k1: int, k2: int, bridges, rng) -> Graph:
    """Two cliques plus `bridges` random inter-clique edges — the topology
    where a too-small candidate region would show: high-core components
    connected through low-core bridge vertices."""
    g = Graph()
    for i in range(k1):
        for j in range(i + 1, k1):
            g.add_edge(i, j)
    for i in range(k2):
        for j in range(i + 1, k2):
            g.add_edge(k1 + i, k1 + j)
    for _ in range(bridges):
        g.add_edge(rng.randrange(k1), k1 + rng.randrange(k2))
    return g


class TestCandidateRegionDifferential:
    """Pin down the candidate-region semantics (issue: code vs docstring).

    The BFS in ``_candidate_region`` traverses only ``core == root``
    vertices; an earlier docstring claimed paths through ``core ≥ root``
    vertices were required. These tests recompute the full decomposition
    after *every* edit on bridge-heavy graphs — the structures where a
    core-r region reachable only through higher-core vertices would arise
    if the tighter traversal were wrong — and confirm the code side: the
    changed set is always chained to an edge endpoint through core-root
    vertices, so the ``core == root`` subcore suffices.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_bridge_heavy_edits_verify_after_every_edit(self, seed):
        rng = random.Random(seed)
        g = _barbell_graph(5, 5, bridges=rng.randrange(1, 4), rng=rng)
        n = 14  # leaves ids 10..13 as initially absent vertices
        index = DynamicCoreIndex(g)
        assert index.verify()
        for step in range(140):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            if g.has_edge(u, v):
                index.remove(u, v)
            else:
                index.insert(u, v)
            assert index.verify(), f"diverged at step {step} on edit ({u}, {v})"

    @pytest.mark.parametrize("seed", range(4))
    def test_pendant_trees_on_dense_core(self, seed):
        # Core-1 chains hanging off a dense core: insertions between chain
        # tips route any rise through the high-core hub vertices.
        rng = random.Random(seed)
        g = gnp_graph(8, 0.6, seed=seed)
        for i in range(8, 20):
            g.add_edge(i, rng.randrange(i))
        index = DynamicCoreIndex(g)
        for step in range(120):
            u, v = rng.randrange(20), rng.randrange(20)
            if u == v:
                continue
            if g.has_edge(u, v):
                index.remove(u, v)
            else:
                index.insert(u, v)
            assert index.verify(), f"diverged at step {step} on edit ({u}, {v})"


class TestExplorerEdits:
    """Edit streams through ``CommunityExplorer.apply_updates`` stay exact."""

    def make(self, seed=0):
        tax = synthetic_taxonomy(40, seed=seed)
        pg = simple_profiled_graph(tax, 25, seed=seed, edge_probability=0.25)
        return CommunityExplorer(pg)

    def test_query_before_any_edit(self):
        ex = CommunityExplorer(fig1_profiled_graph())
        assert len(ex.explore("D", 2)) == 2

    def test_edits_keep_queries_exact(self):
        rng = random.Random(1)
        ex = self.make(seed=1)
        pg = ex.pg
        for step in range(25):
            u = rng.randrange(25)
            v = rng.randrange(25)
            if u == v:
                continue
            op = "remove_edge" if pg.graph.has_edge(u, v) else "add_edge"
            ex.apply_updates([(op, u, v)])
            if step % 5 == 0:
                q = rng.randrange(25)
                got = as_vertex_subtree_map(ex.explore(q, 2))
                fresh = as_vertex_subtree_map(pcs(pg, q, 2, method="basic"))
                assert got == fresh, f"diverged at step {step}"

    def test_profile_update_reflected(self):
        ex = CommunityExplorer(fig1_profiled_graph())
        ex.warm()
        # E gains the full CM branch: {B, C, D, E}? E has edges to A, B, D.
        ex.apply_updates([("set_profile", "E", ["ML", "AI", "DMS"])])
        result = ex.explore("D", 2)
        themes = {frozenset(c.subtree.names()) for c in result}
        assert {"r", "CM", "ML", "AI"} in themes
        got = as_vertex_subtree_map(result)
        fresh = as_vertex_subtree_map(pcs(ex.pg, "D", 2, method="basic"))
        assert got == fresh

    def test_update_profile_unknown_vertex(self):
        ex = self.make()
        with pytest.raises(VertexNotFoundError):
            ex.apply_updates([("set_profile", "nope", [])])

    def test_repair_only_touches_dirty_labels(self):
        ex = self.make(seed=2)
        ex.warm()
        pg = ex.pg
        assert pg.pending_repair_labels == 0
        op = "remove_edge" if pg.graph.has_edge(0, 1) else "add_edge"
        receipt = ex.apply_updates([(op, 0, 1)])
        shared = pg.labels(0) & pg.labels(1)
        assert 0 < receipt.repaired_labels <= len(shared)
        assert pg.pending_repair_labels == 0  # repaired inside the batch

    def test_add_vertex_with_profile(self):
        ex = CommunityExplorer(fig1_profiled_graph())
        ex.apply_updates(
            [
                ("add_vertex", "Z", ["ML"]),
                ("add_edge", "Z", "B"),
                ("add_edge", "Z", "C"),
                ("add_edge", "Z", "D"),
            ]
        )
        got = as_vertex_subtree_map(ex.explore("Z", 2))
        fresh = as_vertex_subtree_map(pcs(ex.pg, "Z", 2, method="basic"))
        assert got == fresh
        assert any("Z" in members for members in got.values())
