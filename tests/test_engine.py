"""Tests for the batched query engine (repro.engine)."""

import pytest

from repro.core import as_vertex_subtree_map, pcs
from repro.core.search import ALL_METHODS
from repro.datasets import fig1_profiled_graph, simple_profiled_graph
from repro.datasets.taxonomies import synthetic_taxonomy
from repro.engine import (
    CommunityExplorer,
    MISSING,
    LRUCache,
    Query,
    coerce_query_vertices,
    load_queries,
    parse_queries,
)
from repro.errors import InvalidInputError, VertexNotFoundError


@pytest.fixture()
def fig1():
    return fig1_profiled_graph()


@pytest.fixture()
def explorer(fig1):
    return CommunityExplorer(fig1, default_k=2)


def synthetic_instance(seed=3, n=24):
    tax = synthetic_taxonomy(40, seed=seed)
    return simple_profiled_graph(tax, n, seed=seed, edge_probability=0.35)


class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache(maxsize=4)
        assert cache.get_versioned("a", 0) is MISSING
        cache.put_versioned("a", 0, 1)
        assert cache.get_versioned("a", 0) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put_versioned("a", 0, 1)
        cache.put_versioned("b", 0, 2)
        assert cache.get_versioned("a", 0) == 1  # refreshes "a"; "b" is now LRU
        cache.put_versioned("c", 0, 3)
        assert cache.stats().evictions == 1
        assert cache.get_versioned("b", 0) is MISSING
        assert cache.get_versioned("a", 0) == 1
        assert cache.get_versioned("c", 0) == 3

    def test_disabled_cache(self):
        cache = LRUCache(maxsize=0)
        cache.put_versioned("a", 0, 1)
        assert cache.get_versioned("a", 0) is MISSING
        assert cache.stats().size == 0

    def test_unbounded(self):
        cache = LRUCache(maxsize=None)
        for i in range(3000):
            cache.put_versioned(i, 0, i)
        assert cache.stats().size == 3000 and cache.stats().evictions == 0

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=-1)


class TestExplorerCacheAccounting:
    def test_repeat_query_hits_cache(self, explorer):
        first = explorer.explore("D")
        second = explorer.explore("D")
        assert first is second  # cached object, not a recomputation
        stats = explorer.stats()
        assert stats.queries_served == 1
        assert stats.cache.hits == 1 and stats.cache.misses == 1

    def test_distinct_parameters_miss(self, explorer):
        explorer.explore("D", k=2)
        explorer.explore("D", k=1)
        explorer.explore("D", k=2, method="incre")
        stats = explorer.stats()
        assert stats.queries_served == 3
        assert stats.cache.hits == 0 and stats.cache.misses == 3

    def test_default_and_explicit_method_share_entry(self, explorer):
        explorer.explore("D")  # default adv-P
        explorer.explore("D", method="adv-P")
        explorer.explore("D", method="ADV-p")  # case-insensitive
        stats = explorer.stats()
        assert stats.queries_served == 1 and stats.cache.hits == 2

    def test_index_built_once(self, explorer):
        for q in ("D", "E", "A"):
            explorer.explore(q)
        stats = explorer.stats()
        assert stats.index_builds == 1
        assert explorer.index_ready

    def test_warm_is_idempotent(self, explorer):
        explorer.warm()
        explorer.warm()
        assert explorer.stats().index_builds == 1

    def test_eviction_forces_recompute(self, fig1):
        ex = CommunityExplorer(fig1, cache_size=1, default_k=2)
        ex.explore("D")
        ex.explore("E")  # evicts D
        ex.explore("D")  # recomputed, evicts E
        stats = ex.stats()
        assert stats.queries_served == 3 and stats.cache.evictions == 2

    def test_clear_cache_keeps_index(self, explorer):
        explorer.explore("D")
        explorer.clear_cache()
        explorer.explore("D")
        stats = explorer.stats()
        assert stats.queries_served == 2 and stats.index_builds == 1

    def test_batch_accounting(self, explorer):
        explorer.explore_many([("D", 2), ("D", 2), ("E", 2)])
        stats = explorer.stats()
        # Three lookups; D executes once (in-batch dedup), E once.
        assert stats.queries_served == 2
        assert stats.cache.misses == 3 and stats.batches == 1
        explorer.explore_many([("D", 2), ("E", 2)])
        assert explorer.stats().cache.hits == 2

    def test_reset_stats(self, explorer):
        explorer.explore("D")
        explorer.reset_stats()
        stats = explorer.stats()
        assert stats.queries_served == 0 and stats.cache.lookups == 0

    def test_unknown_vertex_raises(self, explorer):
        with pytest.raises(VertexNotFoundError):
            explorer.explore("nope")

    def test_unknown_method_raises(self, explorer):
        with pytest.raises(InvalidInputError):
            explorer.explore("D", method="warp")


class TestBatchEqualsPerQuery:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_all_methods_match_direct_pcs(self, method):
        pg = synthetic_instance()
        queries = sorted(pg.vertices())[:6]
        expected = [as_vertex_subtree_map(pcs(pg, q, 2, method=method)) for q in queries]
        ex = CommunityExplorer(pg, default_k=2)
        batch = ex.explore_many([(q, None, method) for q in queries])
        assert [as_vertex_subtree_map(r) for r in batch] == expected

    def test_engine_aware_pcs_dispatch(self, fig1):
        ex = CommunityExplorer(fig1, default_k=2)
        direct = pcs(fig1, "D", 2)
        via_engine = pcs(fig1, "D", 2, engine=ex)
        assert as_vertex_subtree_map(via_engine) == as_vertex_subtree_map(direct)
        assert ex.stats().queries_served == 1
        # Second dispatch is served from the engine's cache.
        assert pcs(fig1, "D", 2, engine=ex) is via_engine

    def test_engine_pg_mismatch_rejected(self, fig1):
        ex = CommunityExplorer(fig1)
        other = synthetic_instance()
        with pytest.raises(InvalidInputError):
            pcs(other, 0, 1, engine=ex)


class TestCohesionHandling:
    def test_registered_name_and_none_share_cache_entry(self, fig1):
        ex = CommunityExplorer(fig1, default_k=2)
        ex.explore("D")
        ex.explore("D", cohesion="k-core")
        stats = ex.stats()
        assert stats.queries_served == 1 and stats.cache.hits == 1

    def test_named_alternative_model(self, fig1):
        ex = CommunityExplorer(fig1, default_k=2)
        direct = pcs(fig1, "D", 2, cohesion="k-truss")
        via = ex.explore("D", cohesion="k-truss")
        assert as_vertex_subtree_map(via) == as_vertex_subtree_map(direct)

    def test_unregistered_instance_is_used_verbatim(self, fig1):
        # A parametrized model outside the registry must run with exactly
        # the supplied object — the regression was a registry re-resolve.
        from repro.core import FractionalKCoreCohesion

        model = FractionalKCoreCohesion(0.8)
        direct = pcs(fig1, "D", 2, cohesion=model)
        ex = CommunityExplorer(fig1, default_k=2)
        via_engine = pcs(fig1, "D", 2, cohesion=model, engine=ex)
        assert as_vertex_subtree_map(via_engine) == as_vertex_subtree_map(direct)

    def test_distinct_instances_do_not_share_cache(self, fig1):
        from repro.core import FractionalKCoreCohesion

        ex = CommunityExplorer(fig1, default_k=2)
        ex.explore("D", cohesion=FractionalKCoreCohesion(0.5))
        ex.explore("D", cohesion=FractionalKCoreCohesion(1.0))
        assert ex.stats().queries_served == 2  # identity-keyed, no collision


class TestBatchFile:
    def test_plain_text(self):
        queries = parse_queries("# comment\nD\nE\n", default_k=2)
        assert queries == [Query("D", 2), Query("E", 2)]

    def test_json_list(self):
        queries = parse_queries(
            '["D", ["E", 3], {"vertex": "A", "method": "incre"}, {"vertex": "B", "limit": 1}]',
            default_k=2,
        )
        assert queries[:2] == [Query("D", 2), Query("E", 3)]
        assert queries[2] == Query("A", 2, method="incre")
        assert queries[3] == Query("B", 2, limit=1)  # post-filters survive

    def test_default_method_fills_unpinned_queries_only(self):
        queries = parse_queries(
            'D\n{"vertex": "E", "method": "incre"}\n', default_k=2, default_method="basic"
        )
        assert queries == [Query("D", 2, "basic"), Query("E", 2, "incre")]

    def test_json_lines(self):
        queries = parse_queries('{"vertex": "D", "k": 4}\n{"vertex": "E"}\n', default_k=2)
        assert queries == [Query("D", 4), Query("E", 2)]

    def test_json_lines_starting_with_array_item(self):
        # A leading [q, k] line must not be mistaken for a whole-file list.
        queries = parse_queries('["E", 3]\n{"vertex": "D"}\n', default_k=2)
        assert queries == [Query("E", 3), Query("D", 2)]

    def test_single_array_file_is_whole_file_list(self):
        # Documented precedence: one parseable JSON document == list form,
        # so this is two queries, not one (q, k) pair.
        queries = parse_queries('["E", 3]', default_k=2)
        assert queries == [Query("E", 2), Query(3, 2)]

    def test_invalid_json_reports_line(self):
        with pytest.raises(InvalidInputError, match="line 2"):
            parse_queries('D\n{"vertex": broken}\n')

    def test_unknown_keys_and_bad_documents_are_rejected(self):
        with pytest.raises(InvalidInputError, match="methud"):
            parse_queries('[{"vertex": "D", "methud": "basic"}]')
        with pytest.raises(InvalidInputError):
            parse_queries('{"k": 2}\n')  # no vertex
        with pytest.raises(InvalidInputError):
            parse_queries('[["D", 2, "basic", null, "extra"]]')
        assert parse_queries("  \n") == []

    def test_load_queries(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("D\n\n# skip\nE\n", encoding="utf-8")
        assert [q.vertex for q in load_queries(path)] == ["D", "E"]

    def test_vertex_coercion_to_int(self):
        pg = synthetic_instance()
        queries = coerce_query_vertices(pg, [Query("0", 2), Query("zzz", 2)])
        assert queries[0].vertex == 0  # re-typed: graph uses int vertices
        assert queries[1].vertex == "zzz"  # untouched


class TestThroughputWorkload:
    def test_replay_hits_cache(self, fig1):
        from repro.bench import Workload, run_throughput

        workload = Workload(dataset="fig1", k=2, queries=("D", "E"))
        ex = CommunityExplorer(fig1)
        report = run_throughput(ex, workload, repeat_factor=3)
        assert report.queries == 6 and report.executed == 2
        assert report.cache_hits == 4 and report.cache_misses == 2
        assert report.cache_hit_rate == pytest.approx(4 / 6)
        assert report.queries_per_second > 0
        round_trip = report.to_dict()
        assert round_trip["executed"] == 2

    def test_repeat_factor_validated(self, fig1):
        from repro.bench import Workload, run_throughput

        with pytest.raises(ValueError):
            run_throughput(
                CommunityExplorer(fig1),
                Workload(dataset="fig1", k=2, queries=("D",)),
                repeat_factor=0,
            )
