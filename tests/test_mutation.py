"""Tests for the versioned mutation pipeline.

Covers the ProfiledGraph update API (version counter, label/P-tree-cache
consistency), incremental CP-tree maintenance (structural equivalence with
fresh builds across randomized edit sequences), and the mutation-safe
engine (epoch-based cache invalidation, atomic batches, apply_updates).
"""

import random

import pytest

from repro.bench import index_matches_fresh_build
from repro.core import as_vertex_subtree_map, pcs
from repro.datasets import fig1_profiled_graph, simple_profiled_graph
from repro.datasets.taxonomies import synthetic_taxonomy
from repro.engine import (
    MISSING,
    CommunityExplorer,
    GraphUpdate,
    LRUCache,
    parse_update_text,
)
from repro.engine.updates import apply_update
from repro.errors import InvalidInputError, VertexNotFoundError


@pytest.fixture()
def fig1():
    return fig1_profiled_graph()


def synthetic_instance(seed=3, n=24):
    tax = synthetic_taxonomy(40, seed=seed)
    return simple_profiled_graph(tax, n, seed=seed, edge_probability=0.35)


# ----------------------------------------------------------------------
# ProfiledGraph mutation API
# ----------------------------------------------------------------------
class TestProfiledGraphMutation:
    def test_version_bumps_once_per_effective_edit(self, fig1):
        assert fig1.version == 0
        assert fig1.add_edge("A", "C")
        assert fig1.version == 1
        assert not fig1.add_edge("A", "C")  # duplicate: no bump
        assert fig1.version == 1
        assert fig1.remove_edge("A", "C")
        assert fig1.version == 2
        assert not fig1.remove_edge("A", "C")  # absent: no bump
        assert fig1.version == 2

    def test_add_vertex_with_profile_closure(self, fig1):
        tax = fig1.taxonomy
        assert fig1.add_vertex("Z", profile=["ML"])
        assert "Z" in fig1
        # Ancestor closure: ML implies its whole root path.
        assert tax.id_of("ML") in fig1.labels("Z")
        assert fig1.labels("Z") == tax.closure([tax.id_of("ML")])
        assert not fig1.add_vertex("Z")  # already present: no overwrite
        assert fig1.version == 1

    def test_remove_vertex_cleans_labels_and_ptree_cache(self, fig1):
        # Regression: removing a vertex used to orphan its label entry.
        fig1.ptree("E")  # populate the P-tree cache
        assert "E" in fig1._ptree_cache
        fig1.remove_vertex("E")
        assert "E" not in fig1
        assert "E" not in fig1.all_labels()
        assert "E" not in fig1._ptree_cache
        with pytest.raises(VertexNotFoundError):
            fig1.labels("E")
        with pytest.raises(VertexNotFoundError):
            fig1.remove_vertex("E")

    def test_add_edge_creates_profiled_endpoints(self, fig1):
        fig1.add_edge("A", "new-vertex")
        assert fig1.labels("new-vertex") == frozenset()
        assert "new-vertex" in fig1.all_labels()

    def test_add_edge_self_loop_rejected(self, fig1):
        with pytest.raises(InvalidInputError):
            fig1.add_edge("A", "A")

    def test_set_profile_updates_labels_and_invalidates_ptree(self, fig1):
        tax = fig1.taxonomy
        before = fig1.ptree("E")
        assert fig1.set_profile("E", ["ML", "AI"])
        assert fig1.labels("E") == tax.closure([tax.id_of("ML"), tax.id_of("AI")])
        after = fig1.ptree("E")
        assert after is not before and after.nodes == fig1.labels("E")

    def test_set_profile_noop_keeps_version(self, fig1):
        labels = sorted(fig1.labels("E"))
        assert not fig1.set_profile("E", labels)
        assert fig1.version == 0

    def test_set_profile_unknown_vertex(self, fig1):
        with pytest.raises(VertexNotFoundError):
            fig1.set_profile("nope", ["ML"])


# ----------------------------------------------------------------------
# incremental CP-tree maintenance
# ----------------------------------------------------------------------
def assert_index_matches_fresh(pg):
    """The maintained CP-tree must be byte-equal to a rebuild."""
    assert index_matches_fresh_build(pg)


class TestIncrementalIndexMaintenance:
    def test_edge_edit_repairs_only_shared_labels(self, fig1):
        index = fig1.index()
        shared = fig1.labels("C") & fig1.labels("D")
        before = {t: index.node(t).cltree for t in index.labels()}
        fig1.remove_edge("C", "D")
        # The index equals a fresh build right after the edit: nothing waits
        # for a later index() call, and only shared labels' trees moved.
        assert_index_matches_fresh(fig1)
        assert fig1.index() is index
        moved = {t for t in index.labels() if index.node(t).cltree is not before[t]}
        assert moved and moved <= shared
        assert fig1.maintenance_seconds > 0.0

    def test_profile_edit_dirties_symmetric_difference(self, fig1):
        tax = fig1.taxonomy
        index = fig1.index()
        old = fig1.labels("E")
        before = {t: index.node(t).cltree for t in index.labels()}
        fig1.set_profile("E", ["ML", "AI", "DMS"])
        new = fig1.labels("E")
        assert_index_matches_fresh(fig1)
        # Only the labels E gained or lost had their CL-trees touched.
        for t in set(before) & set(index.labels()) - (old ^ new):
            assert index.node(t).cltree is before[t]
        ml_node = fig1.index().node(tax.id_of("ML"))
        assert "E" in ml_node.vertices

    def test_vertex_removal_repairs_index(self, fig1):
        index = fig1.index()
        fig1.remove_vertex("D")
        assert_index_matches_fresh(fig1)
        assert fig1.index() is index
        with pytest.raises(InvalidInputError):
            fig1.index().head_labels("D")

    def test_label_emptied_and_repopulated(self, fig1):
        tax = fig1.taxonomy
        fig1.index()
        ml = tax.id_of("ML")
        carriers = sorted(fig1.index().vertices_with_label(ml))
        assert carriers  # fig1 has ML vertices
        for v in carriers:
            fig1.set_profile(v, set(fig1.labels(v)) - {ml})
        assert_index_matches_fresh(fig1)
        assert not fig1.index().has_label(ml)
        fig1.set_profile(carriers[0], ["ML"])
        assert_index_matches_fresh(fig1)
        assert fig1.index().vertices_with_label(ml) == frozenset({carriers[0]})

    def test_rebuild_true_still_forces_full_build(self, fig1):
        index = fig1.index()
        fig1.add_edge("A", "C")
        rebuilt = fig1.index(rebuild=True)
        assert rebuilt is not index
        assert rebuilt is fig1.index()
        assert_index_matches_fresh(fig1)

    def test_mutations_without_index_skip_journal(self, fig1):
        fig1.add_edge("A", "C")
        fig1.remove_edge("C", "D")
        assert not fig1.has_index()  # nothing maintained, nothing built
        assert fig1.maintenance_seconds == 0.0
        assert_index_matches_fresh(fig1)

    def test_mark_index_stale_forces_rebuild_and_invalidates(self, fig1):
        # The documented fallback for live-view writes the versioned API
        # cannot express: the index is dropped, caches invalidate.
        tax = fig1.taxonomy
        index = fig1.index()
        version = fig1.version
        fig1.all_labels()["E"] = tax.closure([tax.id_of("ML")])  # bypasses API
        fig1.mark_index_stale()
        assert fig1.version == version + 1
        assert not fig1.has_index()
        assert_index_matches_fresh(fig1)
        assert fig1.index() is not index
        assert "E" in fig1.index().vertices_with_label(tax.id_of("ML"))

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_edit_sequences_match_fresh_builds(self, seed):
        rng = random.Random(seed)
        tax = synthetic_taxonomy(30, seed=seed)
        pg = simple_profiled_graph(tax, 18, seed=seed, edge_probability=0.2)
        pg.index()
        next_id = 18
        for step in range(50):
            roll = rng.random()
            vertices = sorted(pg.graph.vertex_set(), key=repr)
            if roll < 0.4:
                u, v = rng.choice(vertices), rng.choice(vertices)
                if u == v:
                    continue
                if pg.graph.has_edge(u, v):
                    pg.remove_edge(u, v)
                else:
                    pg.add_edge(u, v)
            elif roll < 0.6:
                pg.set_profile(
                    rng.choice(vertices),
                    rng.sample(range(tax.num_nodes), rng.randrange(0, 4)),
                )
            elif roll < 0.75:
                pg.add_vertex(
                    next_id, rng.sample(range(tax.num_nodes), rng.randrange(0, 3))
                )
                pg.add_edge(next_id, rng.choice(vertices))
                next_id += 1
            elif pg.num_vertices > 6:
                pg.remove_vertex(rng.choice(vertices))
            assert_index_matches_fresh(pg)

    def test_queries_equal_basic_after_edits(self, seed=1):
        # End-to-end: index-based answers after edits == index-free truth.
        rng = random.Random(seed)
        pg = synthetic_instance(seed=seed)
        pg.index()
        for step in range(20):
            u, v = rng.randrange(24), rng.randrange(24)
            if u == v:
                continue
            if pg.graph.has_edge(u, v):
                pg.remove_edge(u, v)
            else:
                pg.add_edge(u, v)
            if step % 5 == 0:
                q = rng.randrange(24)
                got = as_vertex_subtree_map(pcs(pg, q, 2, index=pg.index()))
                want = as_vertex_subtree_map(pcs(pg, q, 2, method="basic"))
                assert got == want, f"diverged at step {step}"


# ----------------------------------------------------------------------
# mutation-safe engine
# ----------------------------------------------------------------------
class TestEngineMutationSafety:
    def test_stale_read_regression(self, fig1):
        """The acceptance scenario: mutate behind a warm explorer, re-query,
        and get the freshly recomputed community (the pre-version pipeline
        demonstrably served the stale one)."""
        ex = CommunityExplorer(fig1, default_k=2)
        stale = ex.explore("D")
        assert ex.explore("D") is stale  # warm: served from cache
        ex.apply_updates([("remove_edge", "C", "D")])
        fresh = ex.explore("D")
        truth = as_vertex_subtree_map(pcs(fig1, "D", 2, method="basic"))
        assert as_vertex_subtree_map(fresh) == truth
        # The graph change genuinely moved the answer, so serving the old
        # cache entry (what the engine did before versioning) was wrong.
        assert as_vertex_subtree_map(fresh) != as_vertex_subtree_map(stale)
        assert ex.stats().invalidations == 1

    def test_direct_pg_mutation_also_invalidates(self, fig1):
        # Version checks cover mutations that bypass apply_updates too.
        ex = CommunityExplorer(fig1, default_k=2)
        ex.explore("D")
        fig1.remove_edge("C", "D")
        fresh = ex.explore("D")
        truth = as_vertex_subtree_map(pcs(fig1, "D", 2, method="basic"))
        assert as_vertex_subtree_map(fresh) == truth
        assert ex.stats().invalidations == 1

    def test_unmutated_graph_still_hits_cache(self, fig1):
        ex = CommunityExplorer(fig1, default_k=2)
        first = ex.explore("D")
        assert ex.explore("D") is first
        stats = ex.stats()
        assert stats.cache.hits == 1 and stats.invalidations == 0

    def test_falsy_result_is_served_from_cache(self, fig1):
        # An empty PCSResult is falsy; the sentinel-based lookup must not
        # re-execute it forever.
        ex = CommunityExplorer(fig1, default_k=2)
        empty = ex.explore("D", k=50)
        assert len(empty) == 0 and not empty
        assert ex.explore("D", k=50) is empty
        stats = ex.stats()
        assert stats.queries_served == 1 and stats.cache.hits == 1

    def test_batch_with_unknown_vertex_fails_before_any_work(self, fig1):
        ex = CommunityExplorer(fig1, default_k=2)
        before = ex.stats()
        with pytest.raises(VertexNotFoundError):
            ex.explore_many([("D", 2), ("ghost", 2), ("E", 2)])
        after = ex.stats()
        assert after.queries_served == before.queries_served == 0
        assert after.batches == 0
        assert after.cache.lookups == 0  # validation precedes cache traffic
        # The batch left nothing half-cached behind.
        assert len(ex._cache) == 0

    def test_batch_with_unknown_method_fails_before_any_work(self, fig1):
        ex = CommunityExplorer(fig1, default_k=2)
        with pytest.raises(InvalidInputError):
            ex.explore_many([("D", 2), ("E", 2, "warp-speed")])
        stats = ex.stats()
        assert stats.queries_served == 0 and stats.batches == 0

    def test_single_explore_validates_before_cache(self, fig1):
        ex = CommunityExplorer(fig1, default_k=2)
        with pytest.raises(VertexNotFoundError):
            ex.explore("ghost")
        assert ex.stats().cache.lookups == 0

    def test_apply_updates_receipt_and_noops(self, fig1):
        ex = CommunityExplorer(fig1, default_k=2)
        ex.warm()
        receipt = ex.apply_updates(
            [
                ("add_edge", "A", "C"),
                ("add_edge", "A", "C"),  # duplicate: no-op
                GraphUpdate(op="set_profile", u="E", labels=["ML"]),
                {"op": "add_vertex", "u": "Z", "labels": ["AI"]},
                ("add_edge", "Z", "D"),
            ]
        )
        assert receipt.requested == 5
        assert receipt.applied == 4
        assert receipt.version == fig1.version == 4
        assert receipt.repaired_labels > 0
        stats = ex.stats()
        assert stats.updates_applied == 4
        assert stats.maintenance_seconds > 0.0
        assert_index_matches_fresh(fig1)

    def test_apply_updates_without_index_defers_build(self, fig1):
        ex = CommunityExplorer(fig1, default_k=2)
        receipt = ex.apply_updates([("add_edge", "A", "C")])
        assert receipt.repaired_labels == 0 and not fig1.has_index()
        ex.explore("D")  # builds lazily, post-edit
        assert fig1.has_index()


# ----------------------------------------------------------------------
# versioned cache + update parsing
# ----------------------------------------------------------------------
class TestVersionedCache:
    def test_get_versioned_hit_miss_invalidation(self):
        cache = LRUCache(maxsize=4)
        assert cache.get_versioned("a", 0) is MISSING
        cache.put_versioned("a", 0, "value")
        assert cache.get_versioned("a", 0) == "value"
        assert cache.get_versioned("a", 1) is MISSING  # stale: dropped
        assert "a" not in cache
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 2
        assert stats.invalidations == 1

    def test_falsy_and_none_values_cacheable(self):
        cache = LRUCache()
        cache.put_versioned("empty", 7, [])
        cache.put_versioned("none", 7, None)
        assert cache.get_versioned("empty", 7) == []
        assert cache.get_versioned("none", 7) is None
        assert cache.get("absent", MISSING) is MISSING

    def test_pop_and_reset(self):
        cache = LRUCache()
        cache.put("a", 1)
        assert cache.pop("a") == 1 and cache.pop("a") is None
        cache.put_versioned("b", 0, 2)
        cache.get_versioned("b", 9)
        cache.reset_stats()
        assert cache.stats().invalidations == 0


class TestUpdateParsing:
    def test_text_formats(self):
        updates = parse_update_text(
            "# comment\n"
            "add-edge A B\n"
            "remove-edge A B\n"
            "add-vertex Z ML,AI\n"
            "add-vertex Y\n"
            "remove-vertex Z\n"
            "set-profile E ML\n"
            '{"op": "add_edge", "u": 1, "v": 2}\n'
        )
        ops = [u.op for u in updates]
        assert ops == [
            "add_edge",
            "remove_edge",
            "add_vertex",
            "add_vertex",
            "remove_vertex",
            "set_profile",
            "add_edge",
        ]
        assert updates[2].labels == ["ML", "AI"]
        assert updates[3].labels == []
        assert updates[6].u == 1 and updates[6].v == 2

    def test_bad_lines_report_position(self):
        with pytest.raises(InvalidInputError, match="line 2"):
            parse_update_text("add-edge A B\nadd-edge A\n")
        with pytest.raises(InvalidInputError, match="line 1"):
            parse_update_text('{"op": broken}\n')

    def test_coerce_and_validation(self):
        assert GraphUpdate.coerce(("add-edge", 1, 2)).op == "add_edge"
        assert GraphUpdate.coerce({"op": "remove_vertex", "u": 3}).u == 3
        with pytest.raises(InvalidInputError):
            GraphUpdate(op="teleport", u=1)
        with pytest.raises(InvalidInputError):
            GraphUpdate(op="add_edge", u=1)  # missing v
        with pytest.raises(InvalidInputError):
            GraphUpdate(op="remove_vertex", u=1, v=2)  # spurious v
        with pytest.raises(InvalidInputError):
            GraphUpdate.coerce({"op": "add_edge", "u": 1, "v": 2, "w": 3})
        with pytest.raises(InvalidInputError):
            GraphUpdate.coerce(("add_edge", 1, 2, 3))  # extra endpoint: reject

    def test_apply_update_plain(self, fig1):
        assert apply_update(fig1, GraphUpdate(op="add_edge", u="A", v="C"))
        assert not apply_update(fig1, GraphUpdate(op="add_edge", u="A", v="C"))
        apply_update(fig1, GraphUpdate(op="remove_vertex", u="A"))
        assert "A" not in fig1
