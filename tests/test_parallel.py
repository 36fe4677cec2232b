"""Process-parallel serving: differential, stress and lifecycle tests.

The contract under test: a :class:`~repro.parallel.ParallelExplorer` (and a
``CommunityService(parallel=N)`` session over one) is observationally
identical to the in-process engine — same results, same provenance, same
cache behaviour — for every method, dataset shape and batch composition;
and serving stays consistent while mutations race queries.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.api import CommunityService, Query
from repro.bench import make_edit_stream
from repro.core.search import ALL_METHODS, pcs
from repro.datasets import (
    fig1_profiled_graph,
    load_dataset,
    load_ego_network,
)
from repro.engine import CommunityExplorer
from repro.errors import InvalidInputError
from repro.graph.generators import random_queries
from repro.parallel import ParallelExplorer, WorkerPool, decide_batch_mode

WORKERS = 2  # plenty to prove multi-process correctness, cheap on small CI


def canonical(result):
    """The *answer* of a PCSResult: query, parameters and communities.

    Instrumentation is excluded: ``elapsed_seconds`` obviously, but also
    ``num_verifications`` — a rebuilt set/dict (an unpickled worker graph)
    can iterate in a different order than the incrementally grown original,
    and traversal order shifts how many candidate subtrees the algorithms
    probe before converging on the *same* communities.
    """
    return (
        result.query,
        result.k,
        result.method,
        [(tuple(sorted(c.subtree.nodes)), c.vertices) for c in result],
    )


def make_parallel(pg, **kwargs):
    """A ParallelExplorer that really ships, even for tiny fixtures."""
    kwargs.setdefault("processes", WORKERS)
    kwargs.setdefault("tiny_graph_vertices", 0)
    kwargs.setdefault("min_batch", 2)
    return ParallelExplorer(pg, **kwargs)


# ----------------------------------------------------------------------
# datasets under differential test (module-scoped: pools are reused)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig1():
    return fig1_profiled_graph()


@pytest.fixture(scope="module")
def synthetic():
    return load_dataset("acmdl", scale=0.005, seed=11)


@pytest.fixture(scope="module")
def ego():
    pg, _ = load_ego_network("fb3", seed=7)
    return pg


def _probe_vertices(pg, k, count=3):
    queries = random_queries(pg.graph, count, k, seed=5)
    assert queries, "dataset fixtures must have a non-empty k-core"
    return queries


def _worker_index_state():
    """Runs in a worker: ``(pid, index_builds, index_ready)`` of its engine.

    Sleeps briefly so a burst of probes spreads over the whole fleet
    instead of one fast worker draining the queue.
    """
    from repro.parallel import pool

    time.sleep(0.02)
    engine = pool._WORKER_ENGINE
    return os.getpid(), engine.stats().index_builds, engine.index_ready


def worker_index_states(ex):
    """``{pid: (index_builds, index_ready)}`` over the running fleet."""
    futures, _ = ex.pool.submit_all(
        _worker_index_state, [() for _ in range(4 * ex.processes)]
    )
    states = {pid: (builds, ready) for pid, builds, ready in
              (future.result() for future in futures)}
    assert 1 <= len(states) <= ex.processes
    return states


# ----------------------------------------------------------------------
# differential: parallel == sequential pcs, all methods, all datasets
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_fig1_all_methods(self, fig1, method):
        specs = [(q, 2, method) for q in ("A", "D", "G")]
        expected = [
            canonical(pcs(fig1, q, k, method=m, index=fig1.index()))
            for q, k, m in specs
        ]
        with make_parallel(fig1, default_k=2) as ex:
            got = [canonical(r) for r in ex.explore_many(specs)]
        assert got == expected

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_synthetic_all_methods(self, synthetic, method):
        k = 6
        specs = [(q, k, method) for q in _probe_vertices(synthetic, k)]
        expected = [
            canonical(pcs(synthetic, q, k, method=method, index=synthetic.index()))
            for q, k, _ in specs
        ]
        with make_parallel(synthetic, default_k=k) as ex:
            got = [canonical(r) for r in ex.explore_many(specs)]
        assert got == expected

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_ego_all_methods(self, ego, method):
        k = 6
        specs = [(q, k, method) for q in _probe_vertices(ego, k, count=2)]
        expected = [
            canonical(pcs(ego, q, k, method=method, index=ego.index()))
            for q, k, _ in specs
        ]
        with make_parallel(ego, default_k=k) as ex:
            got = [canonical(r) for r in ex.explore_many(specs)]
        assert got == expected

    @pytest.mark.parametrize("start_method", [None, "spawn"])
    @pytest.mark.parametrize("cohesion", ["k-core", "k-truss"])
    def test_all_methods_before_and_after_update(self, cohesion, start_method):
        """Six methods x one cohesion through real workers == inline, at
        the boot image and again at the image re-shipped after a batch."""
        k = 4
        pg = load_dataset("acmdl", scale=0.005, seed=11)
        shadow = load_dataset("acmdl", scale=0.005, seed=11)
        specs = [
            (q, k, method, cohesion)
            for method in ALL_METHODS
            for q in _probe_vertices(pg, k, count=2)
        ]
        edits = make_edit_stream(pg, 6, seed=3)
        ctx = start_method and multiprocessing.get_context(start_method)
        inline = CommunityExplorer(shadow)
        with make_parallel(pg, mp_context=ctx) as ex:
            for _ in ("boot image", "image after the update"):
                got = [canonical(r) for r in ex.explore_many(specs)]
                assert got == [canonical(r) for r in inline.explore_many(specs)]
                assert ex.pool.shipped_version == pg.version == shadow.version
                ex.apply_updates(edits)
                inline.apply_updates(edits)
            assert ex.pool_stats()["restarts"] == 2
            assert ex.stats().index_builds == 1

    def test_serve_provenance_matches_sequential(self, synthetic):
        k = 6
        queries = _probe_vertices(synthetic, k, count=4)
        specs = [(q, k, "adv-P") for q in queries]
        seq = CommunityExplorer(synthetic, default_k=k)
        with make_parallel(synthetic, default_k=k) as par:
            seq_served = seq.serve(specs)
            par_served = par.serve(specs)
            assert [canonical(r) for r, _, _ in par_served] == [
                canonical(r) for r, _, _ in seq_served
            ]
            assert [hit for _, hit, _ in par_served] == [False] * len(specs)
            assert [hit for _, hit, _ in seq_served] == [False] * len(specs)
            # replay: both serve from their caches
            for explorer in (seq, par):
                assert [hit for _, hit, _ in explorer.serve(specs)] == [True] * len(specs)

    def test_mixed_methods_one_batch(self, fig1):
        specs = [(q, 2, m) for m in ALL_METHODS for q in ("D", "E")]
        expected = [
            canonical(pcs(fig1, q, k, method=m, index=fig1.index()))
            for q, k, m in specs
        ]
        with make_parallel(fig1, default_k=2) as ex:
            assert [canonical(r) for r in ex.explore_many(specs)] == expected


# ----------------------------------------------------------------------
# dedup, falsy results, cache merge
# ----------------------------------------------------------------------
class TestBatchSemantics:
    def test_duplicate_specs_execute_once(self, fig1):
        with make_parallel(fig1, default_k=2) as ex:
            results = ex.explore_many([("D", 2), ("D", 2), ("E", 2), ("D", 2)])
            assert [canonical(r) for r in results[:2]] == [
                canonical(results[0]),
                canonical(results[0]),
            ]
            stats = ex.stats()
            assert stats.queries_served == 2  # D and E, deduplicated
            assert stats.cache.misses == 4  # every incoming spec probed

    def test_falsy_results_cached_and_equal(self, fig1):
        # k far above any degree: every community set is empty (falsy).
        specs = [("D", 99), ("E", 99), ("D", 99)]
        seq = CommunityExplorer(fig1, default_k=2)
        seq_results = seq.explore_many(specs)
        assert all(not r for r in seq_results)
        with make_parallel(fig1, default_k=2) as ex:
            results = ex.explore_many(specs)
            assert [canonical(r) for r in results] == [
                canonical(r) for r in seq_results
            ]
            # falsy results must be cached, not recomputed (MISSING sentinel)
            assert [hit for _, hit, _ in ex.serve(specs)] == [True, True, True]
            assert ex.stats().queries_served == 2

    def test_results_merge_into_shared_cache(self, fig1):
        with make_parallel(fig1, default_k=2) as ex:
            ex.explore_many([("D", 2), ("E", 2)])
            # singles served from the entries the workers produced
            before = ex.stats().queries_served
            [(_, hit, _)] = ex.serve([("D", 2)])
            assert ex.stats().queries_served == before
            assert hit

    def test_small_batch_stays_inline(self, synthetic):
        with ParallelExplorer(synthetic, processes=WORKERS) as ex:
            ex.explore_many([(q, 6) for q in _probe_vertices(synthetic, 6, 2)])
            assert not ex.pool.running  # below min_batch: never shipped

    def test_tiny_graph_stays_inline(self, fig1):
        with ParallelExplorer(fig1, processes=WORKERS, min_batch=2) as ex:
            ex.explore_many([("D", 2), ("E", 2), ("A", 2), ("G", 2)])
            assert not ex.pool.running

    def test_single_process_never_pools(self, fig1):
        with ParallelExplorer(fig1, processes=1, tiny_graph_vertices=0) as ex:
            ex.explore_many([("D", 2), ("E", 2), ("A", 2), ("G", 2)])
            assert not ex.pool.running

    def test_batch_validation_before_any_execution(self, fig1):
        with make_parallel(fig1, default_k=2) as ex:
            with pytest.raises(InvalidInputError):
                ex.explore_many([("D", 2), ("missing-vertex", 2)])
            assert ex.stats().queries_served == 0


# ----------------------------------------------------------------------
# pool lifecycle & mutation safety
# ----------------------------------------------------------------------
class TestPoolLifecycle:
    def test_mutation_restarts_fleet_and_results_track(self, fig1):
        with make_parallel(fig1, default_k=2) as ex:
            specs = [("D", 2), ("E", 2), ("A", 2)]
            before = [canonical(r) for r in ex.explore_many(specs)]
            assert ex.pool_stats()["restarts"] == 1
            receipt = ex.apply_updates([("remove_edge", "D", "E")])
            assert receipt.applied == 1
            after = [canonical(r) for r in ex.explore_many(specs)]
            assert ex.pool_stats()["restarts"] == 2
            assert ex.pool.shipped_version == fig1.version
            expected = [
                canonical(pcs(fig1, q, k, method="adv-P", index=fig1.index()))
                for q, k in specs
            ]
            assert after == expected
            assert before != after  # the edit actually changed communities
            ex.apply_updates([("add_edge", "D", "E")])  # restore for siblings

    def test_close_then_reuse_restarts_lazily(self, fig1):
        with make_parallel(fig1, default_k=2) as ex:
            specs = [("D", 2), ("E", 2), ("A", 2)]
            ex.explore_many(specs)
            ex.close()
            assert not ex.pool.running
            ex.clear_cache()
            ex.explore_many(specs)  # transparently restarts
            assert ex.pool.running
        assert not ex.pool.running  # context exit closed it again

    def test_worker_pool_direct(self, fig1):
        pool = WorkerPool(fig1, processes=2)
        try:
            v = pool.ensure()
            assert v == fig1.version and pool.running
            keys = [("D", 2, "basic", "k-core"), ("E", 2, "basic", "k-core")]
            merged, ran_at = pool.run(keys)
            assert set(merged) == set(keys)
            assert ran_at == fig1.version
            assert pool.ensure() == v  # idempotent, no restart
            assert pool.restarts == 1
        finally:
            pool.close()

    def test_empty_run_starts_no_fleet(self, fig1):
        pool = WorkerPool(fig1, processes=2)
        assert pool.run([]) == ({}, fig1.version)
        assert not pool.running and pool.restarts == 0

    def test_unshippable_vertex_type_fails_fleet_start_with_typed_error(self):
        from repro.core.profiled_graph import ProfiledGraph
        from repro.datasets.fig1 import fig1_taxonomy
        from repro.graph.graph import Graph

        edges = [((0, "a"), (0, "b")), ((0, "b"), (0, "c")), ((0, "a"), (0, "c"))]
        pg = ProfiledGraph(Graph(edges), fig1_taxonomy(), {})
        pool = WorkerPool(pg, processes=2)
        with pytest.raises(InvalidInputError, match="tuple"):
            pool.ensure()
        assert not pool.running

    def test_pool_rejects_bad_worker_count(self, fig1):
        with pytest.raises(InvalidInputError):
            WorkerPool(fig1, processes=0)
        with pytest.raises(InvalidInputError):
            ParallelExplorer(fig1, processes=0)
        with pytest.raises(InvalidInputError):
            ParallelExplorer(fig1, min_batch=1)

    def test_decide_batch_mode_table(self):
        assert decide_batch_mode(10, None)[0] == "inline"
        assert decide_batch_mode(10, 1)[0] == "inline"
        assert decide_batch_mode(3, 4)[0] == "inline"
        assert decide_batch_mode(10, 4, tiny_graph=True)[0] == "inline"
        assert decide_batch_mode(4, 4)[0] == "process"
        assert decide_batch_mode(2, 2, min_batch=2)[0] == "process"


# ----------------------------------------------------------------------
# the index of a parallel session: built once, in the parent, and shipped
# ----------------------------------------------------------------------
class TestParallelIndexBuild:
    def test_from_parts_rejects_mismatched_labels(self, fig1):
        from repro.index.cltree import CLTree
        from repro.index.cptree import CPTree

        buckets = {}
        for v, labels in fig1.all_labels().items():
            for x in labels:
                buckets.setdefault(x, []).append(v)
        parts = {x: CLTree(fig1.graph, vertices=vs) for x, vs in buckets.items()}
        whole = CPTree.from_parts(fig1.all_labels(), fig1.taxonomy, parts)
        assert set(whole.labels()) == set(parts)
        del parts[max(parts)]
        with pytest.raises(InvalidInputError):
            CPTree.from_parts(fig1.all_labels(), fig1.taxonomy, parts)

    def test_warm_installs_index_and_serves(self, synthetic):
        pg = load_dataset("acmdl", scale=0.005, seed=23)
        with ParallelExplorer(pg, processes=2) as ex:
            assert not pg.has_index()
            seconds = ex.warm()
            assert pg.has_index() and seconds >= 0
            assert ex.stats().index_builds == 1
            assert not ex.pool.running  # the fleet starts at its first shard
            q = _probe_vertices(pg, 6, 1)[0]
            expected = canonical(pcs(pg, q, 6, method="adv-P", index=pg.index()))
            assert canonical(ex.explore(q, k=6)) == expected
            assert ex.warm() < 1.0  # idempotent fast path

    def test_no_worker_ever_builds_an_index(self):
        k = 6
        pg = load_dataset("acmdl", scale=0.005, seed=23)
        specs = [(q, k, "adv-P") for q in _probe_vertices(pg, k, count=4)]
        with make_parallel(pg, default_k=k) as ex:
            ex.warm()
            ex.explore_many(specs)
            assert set(worker_index_states(ex).values()) == {(0, True)}
            ex.apply_updates(make_edit_stream(pg, 4, seed=3))
            ex.explore_many(specs)  # restarted fleet, image at the new version
            assert ex.pool_stats()["restarts"] == 2
            assert set(worker_index_states(ex).values()) == {(0, True)}
            assert ex.stats().index_builds == 1

    def test_cold_service_batch_builds_one_index_in_total(self):
        k = 6
        pg = load_dataset("acmdl", scale=0.005, seed=23)
        queries = [
            Query(vertex=q, k=k, method="adv-P")
            for q in _probe_vertices(pg, k, count=4)
        ]
        with CommunityService(pg, parallel=WORKERS) as service:
            # force the process path even at this fixture's size
            service.explorer.tiny_graph_vertices = 0
            service.explorer.min_batch = 2
            assert not pg.has_index()
            service.batch(queries)
            assert service.explorer.pool.running
            assert service.explorer.stats().index_builds == 1
            assert set(worker_index_states(service.explorer).values()) == {(0, True)}

    def test_index_free_fleet_is_reshipped_once_the_parent_has_an_index(self):
        k = 6
        pg = load_dataset("acmdl", scale=0.005, seed=23)
        probes = _probe_vertices(pg, k, count=4)
        with make_parallel(pg, default_k=k) as ex:
            ex.explore_many([(q, k, "basic") for q in probes])
            assert not pg.has_index() and ex.pool_stats()["restarts"] == 1
            assert set(worker_index_states(ex).values()) == {(0, False)}
            got = ex.explore_many([(q, k, "adv-P") for q in probes])
            assert ex.pool_stats()["restarts"] == 2  # same version, new image
            assert set(worker_index_states(ex).values()) == {(0, True)}
            assert ex.stats().index_builds == 1
        expected = [pcs(pg, q, k, method="adv-P", index=pg.index()) for q in probes]
        assert [canonical(r) for r in got] == [canonical(r) for r in expected]


# ----------------------------------------------------------------------
# service facade
# ----------------------------------------------------------------------
class TestServiceParallel:
    def test_parallel_session_matches_inline_session(self, synthetic):
        k = 6
        queries = [
            Query(vertex=q, k=k, method="adv-P")
            for q in _probe_vertices(synthetic, k, 4)
        ]
        inline = CommunityService(synthetic)
        with CommunityService(
            synthetic, parallel=WORKERS
        ) as parallel_service:
            # force the process path even at this fixture's size
            parallel_service.explorer.tiny_graph_vertices = 0
            parallel_service.explorer.min_batch = 2
            a = [r.to_dict() for r in inline.batch(queries)]
            b = [r.to_dict() for r in parallel_service.batch(queries)]
        for left, right in zip(a, b):
            left.pop("elapsed_ms"), right.pop("elapsed_ms")
            assert left == right

    def test_plan_batch_reports_fleet(self, synthetic, fig1):
        with CommunityService(synthetic, parallel=WORKERS) as service:
            assert service.parallel_workers == WORKERS
            assert service.plan_batch(50).parallel
            assert not service.plan_batch(2).parallel
        inline = CommunityService(synthetic)
        assert inline.parallel_workers is None
        assert not inline.plan_batch(50).parallel
        tiny = CommunityService(fig1, parallel=WORKERS)
        assert not tiny.plan_batch(50).parallel  # tiny graph: inline
        tiny.close()

    def test_parallel_one_is_plain_engine(self, fig1):
        service = CommunityService(fig1, parallel=1)
        assert not isinstance(service.explorer, ParallelExplorer)
        service.close()  # no-op on plain engines

    def test_parallel_with_adopted_explorer_rejected(self, fig1):
        engine = CommunityExplorer(fig1)
        with pytest.raises(InvalidInputError):
            CommunityService(engine, parallel=2)
        # parallel=1 means in-process, which any explorer satisfies
        assert CommunityService(engine, parallel=1).explorer is engine
        # adopting a matching ParallelExplorer is fine
        par = make_parallel(fig1)
        assert CommunityService(par, parallel=WORKERS).explorer is par
        with pytest.raises(InvalidInputError):
            CommunityService(par, parallel=WORKERS + 1)
        par.close()

    def test_plan_batch_respects_session_overrides(self, fig1):
        # a session whose explorer overrides the tiny-graph floor must
        # *report* the same mode it will *execute* (they share one rule)
        par = make_parallel(fig1)  # tiny_graph_vertices=0, min_batch=2
        service = CommunityService(par)
        assert service.plan_batch(2).parallel
        assert not service.plan_batch(1).parallel
        par.close()

    def test_parallel_validation(self, fig1):
        with pytest.raises(InvalidInputError):
            CommunityService(fig1, parallel=0)

    def test_batch_plan_round_trip(self):
        from repro.api import BatchPlan

        plan = BatchPlan(mode="process", reason="test", workers=4)
        assert BatchPlan.from_dict(plan.to_dict()) == plan
        with pytest.raises(InvalidInputError):
            BatchPlan.from_dict({"mode": "process", "bogus": 1})
        with pytest.raises(InvalidInputError):
            BatchPlan.from_dict({"reason": "no mode"})


# ----------------------------------------------------------------------
# deterministic seeding (parallel workers must regenerate identically)
# ----------------------------------------------------------------------
class TestDeterministicSeeding:
    def test_omitted_seeds_are_deterministic(self):
        from repro.datasets.synthetic import simple_profiled_graph
        from repro.graph.generators import (
            gnp_graph,
            planted_community_graph,
            preferential_attachment_graph,
        )
        from repro.ptree.taxonomy import Taxonomy

        def edges(g):
            return sorted(tuple(sorted(e, key=repr)) for e in g.edges())

        assert edges(gnp_graph(40, 0.2)) == edges(gnp_graph(40, 0.2))
        assert edges(preferential_attachment_graph(30, 2)) == (
            edges(preferential_attachment_graph(30, 2))
        )
        g1, c1 = planted_community_graph(40, 3, 8)
        g2, c2 = planted_community_graph(40, 3, 8)
        assert edges(g1) == edges(g2) and c1 == c2
        tax = Taxonomy()
        for i in range(1, 8):
            tax.add(f"L{i}", parent=(i - 1) // 2)
        pa, pb = (simple_profiled_graph(tax, 20) for _ in range(2))
        assert edges(pa.graph) == edges(pb.graph)
        assert dict(pa.all_labels()) == dict(pb.all_labels())

    def test_explicit_none_still_means_entropy(self):
        from repro.graph.generators import gnp_graph

        def edges(g):
            return sorted(tuple(sorted(e, key=repr)) for e in g.edges())

        # Two OS-entropy draws of ~350 coin flips colliding is ~impossible;
        # a collision here means seed=None silently became deterministic.
        a = edges(gnp_graph(60, 0.2, seed=None))
        b = edges(gnp_graph(60, 0.2, seed=None))
        assert a != b

    def test_dataset_regenerates_identically_across_processes(self):
        """What worker determinism actually requires: same (name, scale,
        seed) → byte-identical dataset in a fresh interpreter."""
        import hashlib
        import os
        import subprocess
        import sys

        snippet = (
            "from repro.datasets import load_dataset\n"
            "import hashlib\n"
            "pg = load_dataset('acmdl', scale=0.005, seed=11)\n"
            "edges = sorted(tuple(sorted(e, key=repr)) for e in pg.graph.edges())\n"
            "labels = sorted((repr(v), tuple(sorted(s))) "
            "for v, s in pg.all_labels().items())\n"
            "print(hashlib.sha256(repr((edges, labels)).encode()).hexdigest())\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        pg = load_dataset("acmdl", scale=0.005, seed=11)
        edges = sorted(tuple(sorted(e, key=repr)) for e in pg.graph.edges())
        labels = sorted(
            (repr(v), tuple(sorted(s))) for v, s in pg.all_labels().items()
        )
        here = hashlib.sha256(repr((edges, labels)).encode()).hexdigest()
        assert child.stdout.strip() == here


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliParallel:
    def test_batch_parallel_flag(self, tmp_path, capsys):
        import json

        from repro.cli import main

        queries = tmp_path / "queries.txt"
        queries.write_text("D\nE\nA\nG\n")
        rc = main(
            ["batch", "--dataset", "fig1", "--queries", str(queries),
             "--k", "2", "--parallel", "2"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        # fig1 is tiny, so the planner reports inline — but the session
        # construction, plan surfacing and close() all exercised the
        # parallel path end to end.
        assert payload["batch_plan"]["mode"] == "inline"
        assert "vertices" in payload["batch_plan"]["reason"]
        assert payload["num_queries"] == 4

        rc = main(
            ["batch", "--dataset", "fig1", "--queries", str(queries), "--k", "2"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["batch_plan"]["mode"] == "inline"
        assert "no process pool" in payload["batch_plan"]["reason"]


# ----------------------------------------------------------------------
# mutations racing warm queries (the PR-2 stale-serving regression gate)
# ----------------------------------------------------------------------
class TestMutationRace:
    def test_graph_version_consistent_with_communities(self):
        k = 2
        pg = load_dataset("acmdl", scale=0.005, seed=41)
        probes = _probe_vertices(pg, 6, 3)
        # an edit stream that never touches the probe vertices' existence
        others = [v for v in sorted(pg.graph.vertex_set()) if v not in probes]
        edits = []
        for i in range(12):
            u, v = others[2 * i], others[2 * i + 1]
            edits.append(
                ("remove_edge", u, v) if pg.graph.has_edge(u, v) else ("add_edge", u, v)
            )

        # ground truth per version, replayed on an identical shadow graph
        shadow = load_dataset("acmdl", scale=0.005, seed=41)
        expected = {}  # version -> {probe: canonical result}
        expected[shadow.version] = {
            q: canonical(pcs(shadow, q, k, method="basic")) for q in probes
        }
        from repro.engine.updates import GraphUpdate, apply_update

        for edit in edits:
            apply_update(shadow, GraphUpdate.coerce(edit))
            expected[shadow.version] = {
                q: canonical(pcs(shadow, q, k, method="basic")) for q in probes
            }

        service = CommunityService(pg)
        service.warm()
        for q in probes:  # warm the cache so invalidation is exercised
            service.query(Query(vertex=q, k=k, method="basic"))

        errors = []
        done = threading.Event()

        def hammer(q):
            request = Query(vertex=q, k=k, method="basic")
            while not done.is_set():
                response = service.query(request)
                version = response.graph_version
                if version not in expected:
                    errors.append(f"{q}: unknown graph_version {version}")
                    return
                if canonical(response.result) != expected[version][q]:
                    errors.append(
                        f"{q}: response at graph_version {version} does not "
                        "match the graph at that version (stale serving)"
                    )
                    return

        threads = [threading.Thread(target=hammer, args=(q,)) for q in probes]
        for t in threads:
            t.start()
        try:
            for edit in edits:
                service.apply_updates([edit])
        finally:
            done.set()
            for t in threads:
                t.join()
        assert not errors, errors[0]
        # final answers match the fully edited shadow graph
        final = {
            q: canonical(service.query(Query(vertex=q, k=k, method="basic")).result)
            for q in probes
        }
        assert final == expected[shadow.version]
        assert pg.version == shadow.version

    def test_version_stable_single_query_under_edit_burst(self):
        """explore() never tags a result with a version it doesn't reflect."""
        pg = load_dataset("acmdl", scale=0.005, seed=43)
        ex = CommunityExplorer(pg, default_k=2)
        q = _probe_vertices(pg, 6, 1)[0]
        others = [v for v in sorted(pg.graph.vertex_set()) if v != q]
        stop = threading.Event()

        def churn():
            i = 0
            while not stop.is_set():
                u, v = others[i % len(others)], others[(i + 7) % len(others)]
                if u != v:
                    if pg.graph.has_edge(u, v):
                        ex.apply_updates([("remove_edge", u, v)])
                    else:
                        ex.apply_updates([("add_edge", u, v)])
                i += 1

        mutator = threading.Thread(target=churn)
        mutator.start()
        try:
            for _ in range(25):
                ex.clear_cache()
                response = ex.explore_query(Query(vertex=q, k=2, method="basic"))
                # recompute on the *current* graph only if the version still
                # matches; a mismatch means the graph moved on — skip. The
                # recompute itself races the mutator, so it gets the same
                # torn-read treatment the engine applies internally.
                version = response.graph_version
                if pg.version != version:
                    continue
                try:
                    again = pcs(pg, q, 2, method="basic")
                except Exception:
                    if pg.version == version:
                        raise
                    continue
                if pg.version == version:
                    assert canonical(again) == canonical(response.result)
        finally:
            stop.set()
            mutator.join()
