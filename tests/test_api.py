"""Tests for the unified public query surface (repro.api)."""

import json
import random

import pytest

from repro.api import (
    CommunityService,
    Engine,
    MetricsMiddleware,
    Middleware,
    PlanDecision,
    Query,
    QueryBuilder,
    QueryPlanner,
    QueryResponse,
    ResultLimitMiddleware,
)
from repro.api.response import CommunityView
from repro.core import as_vertex_subtree_map, pcs
from repro.core.cohesion import KCoreCohesion
from repro.core.search import ALL_METHODS
from repro.datasets import fig1_profiled_graph, simple_profiled_graph
from repro.datasets.taxonomies import synthetic_taxonomy
from repro.engine import CommunityExplorer
from repro.errors import InvalidInputError, ReproError, VertexNotFoundError


@pytest.fixture()
def fig1():
    return fig1_profiled_graph()


@pytest.fixture()
def service(fig1):
    return CommunityService(fig1, default_k=2)


def synthetic_instance(seed=3, n=24):
    tax = synthetic_taxonomy(40, seed=seed)
    return simple_profiled_graph(tax, n, seed=seed, edge_probability=0.35)


def test_root_package_reexports_the_api():
    import repro

    assert repro.Query is Query
    assert repro.CommunityService is CommunityService
    assert repro.QueryResponse is QueryResponse
    assert repro.Engine is Engine
    assert repro.api.QueryPlanner is QueryPlanner
    with pytest.raises(AttributeError):
        repro.api.NoSuchThing


# ----------------------------------------------------------------------
# Query + builder
# ----------------------------------------------------------------------
class TestQueryBuilder:
    def test_fluent_chain_builds_the_full_query(self):
        q = (
            Query.vertex("D").k(6).method("adv-P").cohesion("k-truss")
            .limit(10).min_size(3).build()
        )
        assert q == Query(
            vertex="D", k=6, method="adv-P", cohesion="k-truss", limit=10, min_size=3
        )

    def test_builder_prefixes_are_shareable(self):
        base = Query.vertex("D").k(2)
        a, b = base.method("basic").build(), base.method("incre").build()
        assert (a.method, b.method) == ("basic", "incre")
        assert base.build().method is None  # the shared prefix is untouched

    def test_builder_accepted_wherever_query_is(self, service):
        builder = Query.vertex("D").k(2)
        assert service.query(builder).returned == 2
        assert Query.coerce(builder) == builder.build()
        assert isinstance(builder, QueryBuilder)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vertex": None},
            {"vertex": "D", "k": -1},
            {"vertex": "D", "k": "six"},
            {"vertex": "D", "method": "warp"},
            {"vertex": "D", "cohesion": "k-warp"},
            {"vertex": "D", "limit": 0},
            {"vertex": "D", "limit": "ten"},
            {"vertex": "D", "min_size": 0},
            {"vertex": "D", "min_size": None},
        ],
    )
    def test_validation_errors_raise_upfront(self, kwargs):
        with pytest.raises(InvalidInputError):
            Query(**kwargs)

    def test_builder_steps_validate_eagerly(self):
        with pytest.raises(InvalidInputError):
            Query.vertex("D").k(-3)
        with pytest.raises(InvalidInputError):
            Query.vertex("D").method("bogus")
        with pytest.raises(InvalidInputError):
            Query.vertex("D").limit(-1)

    def test_method_spelling_is_canonicalised(self):
        assert Query(vertex="D", method="ADV-p").method == "adv-P"
        assert Query(vertex="D", method="BASIC").method == "basic"

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(InvalidInputError):
            Query(vertex="D").replace(methud="basic")


class TestQueryCoercionAndWire:
    def test_coerce_shapes(self):
        assert Query.coerce("D") == Query(vertex="D")
        assert Query.coerce(("D", 2)) == Query(vertex="D", k=2)
        assert Query.coerce(("D", 2, "basic")) == Query(vertex="D", k=2, method="basic")
        assert Query.coerce(["D", 2]) == Query(vertex="D", k=2)
        incre = Query(vertex="D", method="incre")
        assert Query.coerce({"vertex": "D", "method": "incre"}) == incre
        assert Query.coerce(Query.vertex("D").method("incre")) == incre  # builder
        assert Query.coerce(incre) is incre

    def test_coerce_rejects_bad_shapes(self):
        with pytest.raises(InvalidInputError):
            Query.coerce(("D", 2, "basic", None, "extra"))
        with pytest.raises(InvalidInputError):
            Query.coerce(())
        with pytest.raises(InvalidInputError, match="methud"):
            Query.coerce({"vertex": "D", "methud": "basic"})
        with pytest.raises(InvalidInputError):
            Query.coerce({"k": 2})
        with pytest.raises(InvalidInputError):
            Query.coerce(None)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidInputError, match="methud"):
            Query.from_dict({"vertex": "D", "methud": "basic"})
        with pytest.raises(InvalidInputError):
            Query.from_dict({"k": 2})  # no vertex

    def test_from_dict_rejects_legacy_q_key(self):
        with pytest.raises(InvalidInputError, match="unknown Query fields"):
            Query.from_dict({"q": "D", "k": 2})

    def test_from_dict_rejects_junk_field_types(self):
        for payload in (
            {"vertex": [], "k": 2},
            {"vertex": {"a": 1}, "k": 2},
            {"vertex": "D", "k": 2, "method": 3},
            {"vertex": "D", "k": 2, "method": ["adv-P"]},
        ):
            with pytest.raises(InvalidInputError):
                Query.from_dict(payload)

    def test_from_dict_fuzz_raises_only_repro_errors(self):
        rng = random.Random(11)
        fields = ("vertex", "k", "method", "cohesion", "limit", "min_size", "junk")
        scalars = [None, True, False, 0, 1, -3, 2**70, 2.5, float("nan"), "", "D",
                   "adv-P", "BASIC", "k-truss", "k-core", "nope"]

        def value(depth=0):
            roll = rng.random()
            if depth < 2 and roll < 0.15:
                return [value(depth + 1) for _ in range(rng.randrange(3))]
            if depth < 2 and roll < 0.25:
                return {rng.choice(fields): value(depth + 1) for _ in range(rng.randrange(3))}
            return rng.choice(scalars)

        for _ in range(20_000):
            payload = {f: value() for f in rng.sample(fields, rng.randrange(len(fields)))}
            try:
                Query.from_dict(payload)
            except ReproError:
                pass

    def test_json_round_trip(self):
        q = Query(vertex="D", k=3, method="closed", cohesion="k-truss", limit=4, min_size=2)
        assert Query.from_dict(json.loads(json.dumps(q.to_dict()))) == q

    def test_unregistered_cohesion_instance_not_serialisable(self):
        class Custom(KCoreCohesion):
            name = "custom-core"

        q = Query(vertex="D", cohesion=Custom())
        with pytest.raises(InvalidInputError, match="serialis"):
            q.to_dict()

    def test_registered_cohesion_instances_canonicalise_to_names(self):
        from repro.core.cohesion import KTrussCohesion

        assert Query(vertex="D", cohesion=KCoreCohesion()) == Query(
            vertex="D", cohesion="k-core"
        )
        assert Query(vertex="D", cohesion=KTrussCohesion).cohesion == "k-truss"

    def test_round_trip_with_cohesion_instance(self, fig1):
        service = CommunityService(fig1, default_k=2)
        response = service.query(Query(vertex="D", k=2, cohesion=KCoreCohesion()))
        restored = QueryResponse.from_dict(json.loads(json.dumps(response.to_dict())))
        assert restored == response

    def test_service_cache_key_uses_session_defaults(self, fig1):
        service = CommunityService(fig1, default_k=2)
        key = service.cache_key(Query(vertex="D"))
        assert key == service.explorer.resolve_key(("D",))
        assert key[1] == 2  # the session default, not the paper default
        assert Query(vertex="D").cache_key(default_k=2) == key

    def test_session_defaults_resolve_before_planning(self, fig1):
        """Planner, envelope and cache key all see the *resolved* request."""
        service = CommunityService(fig1, default_k=2)
        open_query = Query.vertex("D").cohesion("k-truss")
        explicit_query = open_query.k(2)
        assert service.plan(open_query) == service.plan(explicit_query)
        implicit = service.query(open_query)
        explicit = service.query(explicit_query)
        assert implicit.cohesion == explicit.cohesion == "k-truss"
        assert (implicit.method, implicit.plan) == (explicit.method, explicit.plan)
        assert implicit.plan.method != "adv-P"  # not planned "as k-core"
        assert (implicit.k, implicit.query) == (2, explicit.query)
        assert implicit.cache_hit is False and explicit.cache_hit is True
        batched = service.batch([open_query, explicit_query])
        assert [r.cohesion for r in batched] == ["k-truss", "k-truss"]
        assert [r.cache_hit for r in batched] == [True, True]
        assert service.stats().cache.size == 1  # one entry, not two
        # A None cohesion is the paper's k-core, in the key and the envelope.
        core = service.query("D")
        assert core.cohesion == "k-core" and core.query.cohesion is None
        assert service.cache_key("D")[3] == "k-core"

    def test_cache_key_canonicalisation(self):
        default = Query(vertex="D")
        explicit = Query(vertex="D", k=6, method="adv-P", cohesion="k-core")
        paged = Query(vertex="D", k=6, method="adv-P", limit=1, min_size=5)
        assert default.cache_key() == explicit.cache_key() == paged.cache_key()
        assert Query(vertex="D", k=5).cache_key() != default.cache_key()

    def test_cache_key_separates_parametrised_unregistered_models(self):
        class Frac(KCoreCohesion):
            name = "frac-core"  # not in the registry

            def __init__(self, t):
                self.t = t

        a, b = Query(vertex="D", cohesion=Frac(0.5)), Query(vertex="D", cohesion=Frac(0.9))
        assert a.cache_key() != b.cache_key()  # identity-keyed, never by repr


# ----------------------------------------------------------------------
# QueryResponse envelope
# ----------------------------------------------------------------------
class TestQueryResponse:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_json_round_trip_every_method(self, service, method):
        response = service.query(Query.vertex("D").k(2).method(method))
        restored = QueryResponse.from_dict(json.loads(json.dumps(response.to_dict())))
        assert restored == response
        assert restored.communities == response.communities
        assert restored.method == method
        assert restored.result is None and response.result is not None

    def test_round_trip_on_synthetic_int_vertices(self):
        pg = synthetic_instance()
        service = CommunityService(pg, default_k=2)
        vertex = sorted(pg.vertices())[0]
        response = service.query(Query.vertex(vertex).k(1))
        restored = QueryResponse.from_dict(json.loads(json.dumps(response.to_dict())))
        assert restored == response

    def test_views_match_the_raw_result(self, service):
        response = service.query(Query.vertex("D").k(2))
        assert response.total_communities == len(response.result)
        for view, community in zip(response.communities, response.result):
            assert set(view.vertices) == set(community.vertices)
            assert set(view.theme) == community.theme()
            assert set(view.subtree_nodes) == set(community.subtree.nodes)

    def test_limit_and_min_size_metadata(self, service):
        full = service.query(Query.vertex("D").k(2))
        assert (full.truncated, full.matched) == (False, 2)
        limited = service.query(Query.vertex("D").k(2).limit(1))
        assert limited.returned == 1 and limited.truncated
        assert limited.matched == 2 and limited.total_communities == 2
        sized = service.query(Query.vertex("D").k(2).min_size(4))
        assert sized.returned == 0 and not sized.truncated
        assert sized.total_communities == 2 and sized.matched == 0

    def test_page_aligns_with_the_wire_views(self, service):
        response = service.query(Query.vertex("D").k(2).limit(1).min_size(2))
        page = response.page()
        assert len(page) == response.returned == 1
        for community, view in zip(page, response.communities):
            assert set(community.vertices) == set(view.vertices)

    def test_page_requires_the_live_result(self, service):
        response = service.query(Query.vertex("D").k(2))
        restored = QueryResponse.from_dict(response.to_dict())
        with pytest.raises(InvalidInputError, match="deserialised"):
            restored.page()

    def test_from_dict_rejects_unknown_and_missing_fields(self, service):
        payload = service.query(Query.vertex("D").k(2)).to_dict()
        bad = dict(payload, surprise=1)
        with pytest.raises(InvalidInputError, match="surprise"):
            QueryResponse.from_dict(bad)
        with pytest.raises(InvalidInputError):
            QueryResponse.from_dict({"method": "basic"})

    def test_community_view_from_dict_validates(self):
        with pytest.raises(InvalidInputError):
            CommunityView.from_dict({"vertices": ["a"]})


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------
class TestQueryPlanner:
    def plan(self, query, **state):
        return QueryPlanner().plan(query, **state)

    def test_pinned_method_is_honoured(self):
        decision = self.plan(Query(vertex="D", method="incre"), index_ready=True)
        assert decision == PlanDecision(
            method="incre", reason="caller pinned the method", planned=False
        )

    def test_warm_index_prefers_adv_p(self):
        assert self.plan(Query(vertex="D"), index_ready=True).method == "adv-P"

    def test_cold_one_shot_skips_the_index(self):
        decision = self.plan(Query(vertex="D"), index_ready=False, one_shot=True)
        assert decision.method == "basic" and decision.planned

    def test_cold_session_amortises_a_build(self):
        assert self.plan(Query(vertex="D"), index_ready=False).method == "adv-P"

    def test_non_core_cohesion_uses_the_compatible_subset(self):
        themed = Query(vertex="D", cohesion="k-truss")
        assert self.plan(themed, index_ready=True).method == "incre"
        assert self.plan(themed, index_ready=False).method == "basic"

    def test_decision_round_trips(self):
        decision = self.plan(Query(vertex="D"), index_ready=True)
        assert PlanDecision.from_dict(json.loads(json.dumps(decision.to_dict()))) == decision
        with pytest.raises(InvalidInputError):
            PlanDecision.from_dict({"method": "adv-P", "why": "typo"})

    def test_service_records_the_decision(self, fig1):
        service = CommunityService(fig1, default_k=2, one_shot=True)
        response = service.query("D")
        assert response.plan.planned and response.plan.method == "basic"
        assert response.method == "basic"
        pinned = service.query(Query.vertex("D").k(2).method("adv-P"))
        assert not pinned.plan.planned and pinned.method == "adv-P"


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
class TestCommunityService:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_equivalence_with_pcs_fig1(self, fig1, method):
        service = CommunityService(fig1, default_k=2)
        response = service.query(Query.vertex("D").k(2).method(method))
        direct = pcs(fig1, "D", 2, method=method)
        assert as_vertex_subtree_map(response.result) == as_vertex_subtree_map(direct)

    def test_equivalence_with_pcs_synthetic(self):
        pg = synthetic_instance()
        service = CommunityService(pg, default_k=1)
        for vertex in sorted(pg.vertices())[:6]:
            response = service.query(Query.vertex(vertex).k(1))
            direct = pcs(pg, vertex, 1)
            assert as_vertex_subtree_map(response.result) == as_vertex_subtree_map(direct)

    def test_batch_matches_single_queries_and_reports_hits(self, service):
        single = service.query(Query.vertex("D").k(2))
        responses = service.batch(["D", ("E", 2), "D"])
        assert [r.query.vertex for r in responses] == ["D", "E", "D"]
        assert responses[0].communities == single.communities
        # D was cached by the single query; E was not.
        assert responses[0].cache_hit is True
        assert responses[1].cache_hit is False

    def test_single_query_cache_provenance(self, service):
        first = service.query(Query.vertex("D").k(2))
        second = service.query(Query.vertex("D").k(2))
        assert first.cache_hit is False and second.cache_hit is True
        assert second.graph_version == service.pg.version

    def test_unknown_vertex_fails_before_serving(self, service):
        with pytest.raises(VertexNotFoundError):
            service.query("nope")
        with pytest.raises(VertexNotFoundError):
            service.batch(["D", "nope"])
        assert service.stats().queries_served == 0

    def test_adopts_an_existing_explorer(self, fig1):
        explorer = CommunityExplorer(fig1, default_k=2)
        explorer.explore("D")
        service = CommunityService(explorer)
        assert service.explorer is explorer
        assert service.query(Query.vertex("D").k(2)).cache_hit is True

    def test_rejects_non_graph_targets(self):
        with pytest.raises(InvalidInputError):
            CommunityService(object())

    def test_query_overrides(self, service):
        response = service.query("D", k=2, limit=1)
        assert response.k == 2 and response.returned == 1 and response.truncated

    def test_updates_invalidate_and_bump_version(self, service):
        before = service.query(Query.vertex("D").k(2))
        receipt = service.apply_updates([("remove_edge", "C", "D")])
        assert receipt.applied == 1
        after = service.query(Query.vertex("D").k(2))
        assert after.cache_hit is False
        assert after.graph_version == before.graph_version + 1

    def test_mutation_equivalence_after_updates(self, fig1):
        service = CommunityService(fig1, default_k=2)
        service.query(Query.vertex("D").k(2))
        service.apply_updates([("add_edge", "A", "C")])
        response = service.query(Query.vertex("D").k(2))
        assert as_vertex_subtree_map(response.result) == as_vertex_subtree_map(
            pcs(fig1, "D", 2)
        )


class TestMiddleware:
    def test_result_limit_clamps_every_query(self, fig1):
        service = CommunityService(fig1, default_k=2, max_limit=1)
        response = service.query(Query.vertex("D").k(2))
        assert response.returned == 1 and response.truncated
        explicit = service.query(Query.vertex("D").k(2).limit(5))
        assert explicit.returned == 1  # clamped below the requested 5

    def test_result_limit_validates(self):
        with pytest.raises(InvalidInputError):
            ResultLimitMiddleware(0)

    def test_metrics_middleware_aggregates(self, fig1):
        metrics = MetricsMiddleware()
        service = CommunityService(fig1, default_k=2, middleware=[metrics])
        service.query(Query.vertex("D").k(2))
        service.batch(["D", "E"])
        assert metrics.responses == 3
        assert metrics.cache_hits == 1  # the batched D
        assert metrics.communities_returned >= 3

    def test_custom_before_hook_rewrites_queries(self, fig1):
        class ForceBasic(Middleware):
            def before(self, query, service):
                return query.replace(method="basic")

        service = CommunityService(fig1, default_k=2, middleware=[ForceBasic()])
        response = service.query(Query.vertex("D").k(2))
        assert response.method == "basic"
        assert not response.plan.planned  # the rewrite pinned the method

    def test_hooks_run_in_order_and_reverse(self, fig1):
        calls = []

        class Tap(Middleware):
            def __init__(self, tag):
                self.tag = tag

            def before(self, query, service):
                calls.append(("before", self.tag))
                return None

            def after(self, query, response, service):
                calls.append(("after", self.tag))
                return None

        service = CommunityService(fig1, default_k=2, middleware=[Tap(1), Tap(2)])
        service.query(Query.vertex("D").k(2))
        assert calls == [("before", 1), ("before", 2), ("after", 2), ("after", 1)]


# ----------------------------------------------------------------------
# Engine protocol + pcs() shim
# ----------------------------------------------------------------------
class TestEngineProtocol:
    def test_community_explorer_conforms(self, fig1):
        assert isinstance(CommunityExplorer(fig1), Engine)

    def test_pcs_serves_through_a_conforming_engine(self, fig1):
        import warnings

        explorer = CommunityExplorer(fig1, default_k=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no DeprecationWarning expected
            result = pcs(fig1, "D", 2, engine=explorer)
        assert as_vertex_subtree_map(result) == as_vertex_subtree_map(pcs(fig1, "D", 2))
        assert explorer.stats().queries_served == 1

    def test_duck_typed_engine_is_rejected(self, fig1):
        class LegacyEngine:  # explore only — pre-protocol duck typing
            def __init__(self, pg):
                self.pg = pg

            def explore(self, q, k, method=None, cohesion=None):
                return pcs(self.pg, q, k, method=method or "adv-P", cohesion=cohesion)

        with pytest.raises(InvalidInputError, match="Engine"):
            pcs(fig1, "D", 2, engine=LegacyEngine(fig1))

    def test_non_engine_object_is_rejected(self, fig1):
        with pytest.raises(InvalidInputError, match="Engine"):
            pcs(fig1, "D", 2, engine=object())

    def test_engine_for_wrong_graph_is_rejected(self, fig1):
        other = fig1_profiled_graph()
        with pytest.raises(InvalidInputError, match="different ProfiledGraph"):
            pcs(fig1, "D", 2, engine=CommunityExplorer(other))


# ----------------------------------------------------------------------
# engine-side integration (every request shape, explore_query)
# ----------------------------------------------------------------------
#: One request — D at k=2, defaults elsewhere — in every accepted shape.
REQUEST_SHAPES = [
    Query(vertex="D", k=2),
    Query.vertex("D").k(2),
    ("D", 2),
    {"vertex": "D", "k": 2},
    "D",  # bare vertex: k comes from the session default
]


class TestEngineIntegration:
    @pytest.mark.parametrize("shape", REQUEST_SHAPES, ids=repr)
    def test_one_request_one_entry_through_every_entry_point(self, fig1, shape):
        service = CommunityService(fig1, default_k=2)
        explorer = service.explorer
        assert service.cache_key(shape) == explorer.resolve_key(shape)
        assert explorer.resolve_key(shape) == Query.coerce(shape).cache_key(default_k=2)

        query = Query.coerce(shape)
        first = explorer.explore(query.vertex, query.k)
        envelopes = [
            explorer.explore_query(shape),
            service.query(shape),
            *service.batch([shape, shape]),
        ]
        (many,) = explorer.explore_many([shape])
        ((served, hit, _),) = explorer.serve([shape])

        expected = as_vertex_subtree_map(first)
        for result in [many, served, *(e.result for e in envelopes)]:
            assert as_vertex_subtree_map(result) == expected
        assert [e.cache_hit for e in envelopes] + [hit] == [True] * 5
        assert {e.graph_version for e in envelopes} == {fig1.version}
        cache = explorer.stats().cache
        assert (cache.misses, cache.hits, cache.size) == (1, 6, 1)
        assert explorer.stats().queries_served == 1

    def test_explore_many_accepts_query_objects(self, fig1):
        explorer = CommunityExplorer(fig1, default_k=2)
        results = explorer.explore_many(
            [Query.vertex("D").k(2), Query(vertex="E", k=2), ("D", 2)]
        )
        assert [len(r) for r in results] == [2, 1, 2]
        # In-batch duplicates execute once (dedup) even though both lookups
        # miss the still-cold cache.
        assert explorer.stats().queries_served == 2

    def test_explore_query_envelope_provenance(self, fig1):
        explorer = CommunityExplorer(fig1, default_k=2)
        cold = explorer.explore_query(Query.vertex("D").k(2))
        warm = explorer.explore_query(Query.vertex("D").k(2))
        assert cold.cache_hit is False and warm.cache_hit is True
        assert cold.index_used and cold.graph_version == fig1.version
        basic = explorer.explore_query(Query.vertex("D").k(2).method("basic"))
        assert not basic.index_used
