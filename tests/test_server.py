"""Tests for the HTTP serving gateway (`repro.server`).

Layered like the package: coalescer semantics without any transport,
routing/error mapping through :func:`repro.server.app.handle_request`
without a socket, then full HTTP round-trips over a real
:class:`~repro.server.gateway.CommunityGateway` — equivalence with direct
:class:`~repro.api.service.CommunityService` answers on all six methods,
coalesced vs uncoalesced agreement, admission control (429), graceful
drain, and concurrent clients racing ``POST /update`` with every
response's ``graph_version`` validated.
"""

import email.utils
import http.client
import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.api import CommunityService, Middleware, Query
from repro.core import ALL_METHODS
from repro.datasets import fig1_profiled_graph, simple_profiled_graph
from repro.datasets.taxonomies import synthetic_taxonomy
from repro.engine.updates import GraphUpdate
from repro.errors import VertexNotFoundError
from repro.server.client import _parse_retry_after
from repro.server import (
    CoalescerClosedError,
    CommunityGateway,
    QueueFullError,
    RequestCoalescer,
    ServerClient,
    ServerError,
    handle_request,
)
from repro.storage import load_checkpoint


@contextmanager
def serving(pg_or_service, **kwargs):
    """A started gateway + connected client, both torn down afterwards."""
    gateway = CommunityGateway(pg_or_service, port=0, **kwargs)
    gateway.start()
    host, port = gateway.address
    client = ServerClient(host, port)
    try:
        yield gateway, client
    finally:
        client.close()
        gateway.close()


class SlowMiddleware(Middleware):
    """Hold every query for ``delay`` seconds (drain/overflow scenarios)."""

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def before(self, query, service):
        time.sleep(self.delay)
        return None


def envelope(response, *drop):
    payload = response.to_dict() if hasattr(response, "to_dict") else dict(response)
    payload.pop("elapsed_ms", None)
    for key in drop:
        payload.pop(key, None)
    return payload


# ----------------------------------------------------------------------
# coalescer (no transport)
# ----------------------------------------------------------------------
class TestRequestCoalescer:
    def test_concurrent_submits_share_a_batch(self):
        service = CommunityService(fig1_profiled_graph())
        batch_calls = []
        original = service.batch

        def counting_batch(items, **kw):
            items = list(items)
            batch_calls.append(len(items))
            return original(items, **kw)

        service.batch = counting_batch
        coalescer = RequestCoalescer(service, window=0.05)
        queries = [Query(vertex=v, k=2) for v in ("D", "E", "A", "D")]
        results = [None] * len(queries)

        def submit(i):
            results[i] = coalescer.submit(queries[i])

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        coalescer.close()

        assert all(r is not None for r in results)
        # Everything arrived within one window: a single dispatched batch.
        assert batch_calls == [4]
        # Answers match direct service answers, aligned with submitters.
        # (cache_hit and plan are timing provenance: a later direct query
        # plans against a now-warm index, a batch plans once up front.)
        direct = CommunityService(fig1_profiled_graph())
        for query, response in zip(queries, results):
            expected = direct.query(query)
            assert envelope(response, "cache_hit", "plan") == envelope(
                expected, "cache_hit", "plan"
            )
            assert response.method == expected.method
        stats = coalescer.stats()
        assert stats["submitted"] == 4
        assert stats["dispatched_batches"] == 1
        assert stats["coalesced_requests"] == 4
        assert stats["mean_batch_size"] == 4.0

    def test_window_zero_still_answers(self):
        coalescer = RequestCoalescer(CommunityService(fig1_profiled_graph()), window=0)
        response = coalescer.submit(Query(vertex="D", k=2))
        assert response.returned == 2
        coalescer.close()

    def test_queue_overflow_raises_queue_full(self):
        service = CommunityService(
            fig1_profiled_graph(), middleware=[SlowMiddleware(0.3)]
        )
        coalescer = RequestCoalescer(service, window=0, max_batch=1, max_queue=1)
        outcomes = []
        lock = threading.Lock()

        def submit():
            try:
                outcomes.append(("ok", coalescer.submit(Query(vertex="D", k=2))))
            except QueueFullError as exc:
                with lock:
                    outcomes.append(("full", exc))

        threads = [threading.Thread(target=submit) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        coalescer.close()

        kinds = [kind for kind, _ in outcomes]
        assert "full" in kinds, "admission control never triggered"
        assert "ok" in kinds, "every request was refused"
        rejected = next(exc for kind, exc in outcomes if kind == "full")
        assert rejected.retry_after > 0
        assert coalescer.stats()["rejected"] >= 1

    def test_submit_after_close_is_refused(self):
        coalescer = RequestCoalescer(CommunityService(fig1_profiled_graph()))
        coalescer.close()
        assert coalescer.closed
        with pytest.raises(CoalescerClosedError):
            coalescer.submit(Query(vertex="D", k=2))

    def test_close_drains_queued_requests(self):
        service = CommunityService(
            fig1_profiled_graph(), middleware=[SlowMiddleware(0.05)]
        )
        coalescer = RequestCoalescer(service, window=0.5)  # far future dispatch
        results = []

        def submit(vertex):
            results.append(coalescer.submit(Query(vertex=vertex, k=2)))

        threads = [threading.Thread(target=submit, args=(v,)) for v in ("D", "E")]
        for t in threads:
            t.start()
        time.sleep(0.1)  # both queued, window still open
        coalescer.close()  # must answer them, not abandon them
        for t in threads:
            t.join()
        assert len(results) == 2
        assert all(r.returned >= 1 for r in results)

    def test_bad_vertex_fails_alone_not_its_batchmates(self):
        service = CommunityService(fig1_profiled_graph())
        batch_calls = []
        original = service.batch

        def counting_batch(items, **kw):
            items = list(items)
            batch_calls.append(len(items))
            return original(items, **kw)

        service.batch = counting_batch
        coalescer = RequestCoalescer(service, window=0.05)
        outcomes = {}

        def submit(vertex):
            try:
                outcomes[vertex] = coalescer.submit(Query(vertex=vertex, k=2))
            except VertexNotFoundError as exc:
                outcomes[vertex] = exc

        threads = [
            threading.Thread(target=submit, args=(v,)) for v in ("D", "nope", "E")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        coalescer.close()

        assert isinstance(outcomes["nope"], VertexNotFoundError)
        assert outcomes["D"].returned == 2
        assert outcomes["E"].returned >= 1
        # The poisoned request must not collapse its batchmates to serial
        # per-request execution: the valid remainder still ships as one
        # batch (dedup preserved), the bad vertex never reaches the service.
        assert batch_calls == [2]

    def test_constructor_validation(self):
        service = CommunityService(fig1_profiled_graph())
        with pytest.raises(ValueError):
            RequestCoalescer(service, window=-1)
        with pytest.raises(ValueError):
            RequestCoalescer(service, max_batch=0)
        with pytest.raises(ValueError):
            RequestCoalescer(service, max_queue=0)


# ----------------------------------------------------------------------
# routing + error mapping (no socket)
# ----------------------------------------------------------------------
class TestHandleRequest:
    @pytest.fixture()
    def gateway(self):
        # Unstarted: no socket, no coalescer — pure routing logic.
        return CommunityGateway(fig1_profiled_graph(), coalesce=False)

    def call(self, gateway, method, path, payload=None, raw=None):
        body = raw if raw is not None else (
            b"" if payload is None else json.dumps(payload).encode()
        )
        response = handle_request(gateway, method, path, body)
        decoded = (
            json.loads(response.body)
            if response.content_type.startswith("application/json")
            else response.body.decode()
        )
        return response, decoded

    def test_query_roundtrip(self, gateway):
        response, decoded = self.call(
            gateway, "POST", "/query", Query(vertex="D", k=2).to_dict()
        )
        assert response.status == 200
        assert decoded["returned"] == 2
        assert decoded["query"]["vertex"] == "D"

    def test_rejected_batch_leaves_a_memory_only_graph_and_its_subscriptions(
        self, gateway
    ):
        """A batch that fails mid-way is refused before its first edit, so
        the graph and every subscription window see none of it."""
        _, registered = self.call(gateway, "POST", "/subscribe", {"vertex": "B", "k": 2})
        sub_id = registered["subscription"]["id"]
        add_z1 = [
            {"op": "add_vertex", "u": "Z1", "labels": ["ML", "AI"]},
            {"op": "add_edge", "u": "Z1", "v": "B"},
            {"op": "add_edge", "u": "Z1", "v": "C"},
            {"op": "add_edge", "u": "Z1", "v": "D"},
        ]
        response, decoded = self.call(
            gateway, "POST", "/update",
            {"updates": [*add_z1, {"op": "remove_vertex", "u": "nope"}]},
        )
        assert response.status == 404
        assert decoded["error"]["type"] == "vertex_not_found"
        assert gateway.service.pg.version == 0 and "Z1" not in gateway.service.pg
        _, polled = self.call(gateway, "POST", "/subscribe/poll",
                              {"id": sub_id, "last_event_id": 1, "timeout": 0})
        assert polled["count"] == 0
        # The same edits without the bad one land, and the window follows.
        response, _ = self.call(gateway, "POST", "/update", {"updates": add_z1})
        assert response.status == 200 and gateway.service.pg.version == 4
        _, polled = self.call(gateway, "POST", "/subscribe/poll",
                              {"id": sub_id, "last_event_id": 1, "timeout": 0})
        (diff,) = polled["events"]
        assert diff["event_id"] == 2 and diff["graph_version"] == 4
        assert diff["joined"] == ["Z1"]

    def test_unknown_path_404(self, gateway):
        response, decoded = self.call(gateway, "GET", "/nope")
        assert response.status == 404
        assert decoded["error"]["type"] == "not_found"

    def test_wrong_verb_405_with_allow(self, gateway):
        response, decoded = self.call(gateway, "GET", "/query")
        assert response.status == 405
        assert decoded["error"]["type"] == "method_not_allowed"
        assert dict(response.headers)["Allow"] == "POST"
        response, _ = self.call(gateway, "POST", "/healthz")
        assert response.status == 405

    def test_bad_json_400(self, gateway):
        response, decoded = self.call(gateway, "POST", "/query", raw=b"{not json")
        assert response.status == 400
        assert decoded["error"]["type"] == "invalid_input"

    def test_unknown_query_field_400(self, gateway):
        response, decoded = self.call(
            gateway, "POST", "/query", {"vertex": "D", "methud": "basic"}
        )
        assert response.status == 400
        assert "methud" in decoded["error"]["message"]
        # the removed legacy vertex key is an unknown key like any other
        response, decoded = self.call(gateway, "POST", "/query", {"q": "D", "k": 2})
        assert response.status == 400
        assert "'q'" in decoded["error"]["message"]

    def test_missing_vertex_400(self, gateway):
        response, _ = self.call(gateway, "POST", "/query", {"k": 2})
        assert response.status == 400

    def test_junk_field_types_400(self, gateway):
        for payload in (
            {"vertex": [], "k": 2},
            {"vertex": "D", "k": 2, "method": 3},
            {"vertex": "D", "k": 2, "method": ["adv-P"]},
        ):
            response, decoded = self.call(gateway, "POST", "/query", payload)
            assert response.status == 400, payload
            assert decoded["error"]["type"] == "invalid_input"
        for payload in (
            {"vertex": [], "k": 2},
            {"vertex": {"a": 1}, "k": 2},
            {"vertex": "D", "k": 2, "method": 3},
            {"vertex": "D", "k": 2, "method": ["adv-P"]},
        ):
            response, decoded = self.call(gateway, "POST", "/subscribe", payload)
            assert response.status == 400, payload
            assert decoded["error"]["type"] == "invalid_input"
        assert len(gateway.subscriptions) == 0

    def test_unknown_vertex_404(self, gateway):
        missing = {"vertex": "missing", "k": 2}
        for path, payload in (
            ("/query", missing),
            ("/batch", {"queries": [{"vertex": "D", "k": 2}, missing]}),
        ):
            response, decoded = self.call(gateway, "POST", path, payload)
            assert response.status == 404, path
            assert decoded["error"]["type"] == "vertex_not_found"
        # Refused before any engine work: nothing served, nothing cached.
        stats = gateway.service.stats()
        assert stats.queries_served == 0 and stats.batches == 0
        assert stats.cache.hits == stats.cache.misses == 0

    def test_batch_payload_shapes(self, gateway):
        ok, decoded = self.call(
            gateway, "POST", "/batch", {"queries": [{"vertex": "D", "k": 2}]}
        )
        assert ok.status == 200 and decoded["count"] == 1
        assert decoded["batch_plan"]["mode"] in ("inline", "parallel")
        bare, decoded = self.call(gateway, "POST", "/batch", [{"vertex": "D", "k": 2}])
        assert bare.status == 200 and decoded["count"] == 1
        for payload in ({}, {"queries": []}, {"queries": "D"}, {"wrong": []}, 7):
            response, _ = self.call(gateway, "POST", "/batch", payload)
            assert response.status == 400, payload

    def test_update_bad_op_400(self, gateway):
        response, decoded = self.call(
            gateway, "POST", "/update", {"updates": [{"op": "explode", "u": "D"}]}
        )
        assert response.status == 400
        assert "explode" in decoded["error"]["message"]

    @pytest.mark.parametrize("edit", [
        {"op": 5, "u": "A"},
        {"op": "add_vertex", "u": "Z", "labels": 5},
        ["add_vertex", "Z", 7],
        ["add_edge", [1], 2],
        ["add_vertex", {"x": 1}],
        {"op": "remove_edge", "u": "A", "v": {"a": 1}},
        {"op": "add_vertex", "u": None},
    ], ids=repr)
    def test_update_malformed_edit_400(self, gateway, edit):
        """A malformed edit is refused and moves nothing; a null vertex
        was once acknowledged and then broke every checkpoint."""
        response, decoded = self.call(gateway, "POST", "/update", {"updates": [edit]})
        assert response.status == 400
        assert decoded["error"]["type"] == "invalid_input"
        assert gateway.service.pg.version == 0

    def test_rejected_null_vertex_leaves_the_session_checkpointable(self, tmp_path):
        service = CommunityService(fig1_profiled_graph(), storage_dir=tmp_path)
        gateway = CommunityGateway(service, coalesce=False)
        try:
            response, _ = self.call(
                gateway, "POST", "/update", {"updates": [{"op": "add_vertex", "u": None}]}
            )
            assert response.status == 400
            assert service.storage.wal.num_records == 0
            service.snapshot()
        finally:
            gateway.close()

    @pytest.mark.parametrize("path, payload", [
        ("/update", {"updates": [{"op": "set_profile", "u": 2, "labels": [True]}]}),
        ("/update", {"updates": [{"op": "add_vertex", "u": 99, "labels": [0, True]}]}),
        ("/query", {"vertex": True, "k": 1}),
        ("/batch", {"queries": [{"vertex": True, "k": 1}]}),
        ("/subscribe", {"vertex": True, "k": 1}),
    ], ids=repr)
    def test_boolean_ids_400(self, path, payload):
        """JSON ``true`` names neither vertex 1 nor label 1: it was once
        served as vertex 1 and stored in T(v) as ``True``, which a
        snapshot round trip turned into 1."""
        tax = synthetic_taxonomy(20, seed=1)
        gateway = CommunityGateway(
            simple_profiled_graph(tax, 12, seed=1, edge_probability=0.5), coalesce=False
        )
        response, decoded = self.call(gateway, "POST", path, payload)
        assert response.status == 400
        assert decoded["error"]["type"] == "invalid_input"
        assert gateway.service.pg.version == 0
        assert len(gateway.subscriptions) == 0

    def test_payload_too_large_413(self, gateway):
        gateway.max_body_bytes = 64
        response, decoded = self.call(gateway, "POST", "/query", raw=b"x" * 65)
        assert response.status == 413
        assert decoded["error"]["type"] == "payload_too_large"

    def test_path_normalisation(self, gateway):
        response, _ = self.call(gateway, "GET", "/healthz/")
        assert response.status == 200
        response, _ = self.call(gateway, "GET", "/healthz?verbose=1")
        assert response.status == 200

    def test_bodies_are_compact_json_with_unchanged_values(self, gateway):
        """Whitespace left the wire; every value stayed (indent=2 before)."""
        direct = CommunityService(fig1_profiled_graph())
        query = Query(vertex="D", k=2)
        batch_payload = {"queries": [{"vertex": "D", "k": k} for k in (1, 2, 3)]}
        calls = {
            "query": ("POST", "/query", query.to_dict()),
            "batch": ("POST", "/batch", batch_payload),
            "error": ("POST", "/query", {"vertex": "missing", "k": 2}),
            "stats": ("GET", "/stats", None),
        }
        decoded = {}
        for name, (method, path, payload) in calls.items():
            response, decoded[name] = self.call(gateway, method, path, payload)
            body = response.body
            assert b"\n" not in body, name
            # The body is the compact encoding of its own value, shorter
            # than the indent=2 form the parent commit sent for that value.
            assert body == json.dumps(decoded[name], separators=(",", ":")).encode()
            assert len(body) < len(json.dumps(decoded[name], indent=2).encode()), name
        assert envelope(decoded["query"], "cache_hit") == envelope(
            direct.query(query), "cache_hit"
        )
        assert [envelope(r, "cache_hit") for r in decoded["batch"]["results"]] == [
            envelope(r, "cache_hit")
            for r in direct.batch(
                [Query.from_dict(item) for item in batch_payload["queries"]]
            )
        ]
        assert set(decoded["error"]["error"]) == {"type", "message"}
        assert decoded["error"]["error"]["type"] == "vertex_not_found"
        assert {"engine", "server"} <= set(decoded["stats"])

    def test_unexpected_error_500(self, gateway, monkeypatch):
        def boom(query):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(gateway, "dispatch_query", boom)
        response, decoded = self.call(
            gateway, "POST", "/query", Query(vertex="D", k=2).to_dict()
        )
        assert response.status == 500
        assert "kaboom" in decoded["error"]["message"]


# ----------------------------------------------------------------------
# full HTTP round trips
# ----------------------------------------------------------------------
class TestEndpointEquivalence:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_http_query_equals_direct_service(self, method):
        pg = fig1_profiled_graph()
        reference = CommunityService(pg)
        direct = reference.query(Query(vertex="D", k=2, method=method))
        with serving(CommunityService(pg)) as (gateway, client):
            served = client.query(Query(vertex="D", k=2, method=method))
        # Byte-equivalence modulo timings: same communities, same
        # provenance, same plan, same graph version.
        assert json.dumps(envelope(served), sort_keys=True) == json.dumps(
            envelope(direct), sort_keys=True
        )

    def test_http_batch_equals_direct_service(self):
        pg = fig1_profiled_graph()
        queries = [Query(vertex=v, k=2) for v in ("D", "E", "A", "D")]
        direct = CommunityService(pg).batch(queries)
        with serving(CommunityService(pg)) as (gateway, client):
            served = client.batch(queries)
        # The direct batch ran first and left the shared graph's index warm,
        # so the served batch's plan *reason* differs; the answers (and the
        # chosen method) must not.
        assert [envelope(r, "plan") for r in served] == [
            envelope(r, "plan") for r in direct
        ]
        assert [r.method for r in served] == [r.method for r in direct]

    def test_every_request_path_is_one_engine_batch(self):
        """A coalesced ``/query``, an uncoalesced ``/query``, a one-item
        ``/batch`` and an in-process ``service.query`` answer with one
        envelope, and each reaches the engine as exactly one batch."""
        service = CommunityService(fig1_profiled_graph())
        query = Query(vertex="D", k=2, method="adv-P")
        answers = []

        def count(way):
            before = service.stats().batches
            answers.append(envelope(way(), "cache_hit"))
            assert service.stats().batches == before + 1

        count(lambda: service.query(query))
        with serving(service, coalesce=True) as (_, client):
            count(lambda: client.query(query))
        with serving(service, coalesce=False) as (_, client):
            count(lambda: client.query(query))
            count(lambda: client.batch([query])[0])
        assert answers[1:] == answers[:1] * 3

    def test_update_applies_through_mutation_path(self):
        with serving(fig1_profiled_graph()) as (gateway, client):
            before = client.query(Query(vertex="D", k=2))
            receipt = client.update(
                [("add_edge", "Z", "D"), {"op": "set_profile", "u": "Z",
                                          "labels": ["ML"]}]
            )
            assert receipt["receipt"]["applied"] == 2
            assert receipt["graph_version"] > before.graph_version
            after = client.query(Query(vertex="D", k=2))
            assert after.graph_version == receipt["graph_version"]
            assert after.cache_hit is False  # mutation invalidated the entry

    def test_coalesced_equals_uncoalesced_under_concurrency(self):
        queries = [Query(vertex=v, k=2) for v in ("D", "E", "A")] * 4

        def hammer(client):
            answers = [None] * len(queries)

            def one(i):
                answers[i] = client_pool[i].query(queries[i])

            client_pool = [
                ServerClient(client.host, client.port) for _ in queries
            ]
            threads = [
                threading.Thread(target=one, args=(i,)) for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for c in client_pool:
                c.close()
            return answers

        with serving(fig1_profiled_graph(), coalesce=True,
                     coalesce_window=0.05) as (gateway, client):
            coalesced = hammer(client)
            assert gateway.coalescer.stats()["coalesced_requests"] > 0
        with serving(fig1_profiled_graph(), coalesce=False) as (gateway, client):
            uncoalesced = hammer(client)

        # cache_hit and plan provenance legally differ between the modes
        # (an uncoalesced repeat can hit the cache, and a request planned
        # after the first one sees a warm index); the answers must not.
        for a, b in zip(coalesced, uncoalesced):
            assert envelope(a, "cache_hit", "plan") == envelope(
                b, "cache_hit", "plan"
            )
            assert a.method == b.method


class TestAdmissionControlAndDrain:
    def test_overflow_answers_429_with_retry_after(self):
        service = CommunityService(
            fig1_profiled_graph(), middleware=[SlowMiddleware(0.25)]
        )
        with serving(service, coalesce=True, coalesce_window=0,
                     max_batch=1, max_queue=1) as (gateway, client):
            statuses = []
            lock = threading.Lock()

            def fire():
                with ServerClient(client.host, client.port) as c:
                    try:
                        c.query(Query(vertex="D", k=2))
                        outcome = (200, None)
                    except ServerError as exc:
                        outcome = (exc.status, exc.retry_after)
                with lock:
                    statuses.append(outcome)

            threads = [threading.Thread(target=fire) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        codes = [status for status, _ in statuses]
        assert 429 in codes, f"no request was refused: {codes}"
        assert 200 in codes, f"every request was refused: {codes}"
        retry_hint = next(hint for status, hint in statuses if status == 429)
        assert retry_hint is not None and retry_hint >= 1.0

    def test_close_drains_in_flight_requests(self):
        service = CommunityService(
            fig1_profiled_graph(), middleware=[SlowMiddleware(0.1)]
        )
        gateway = CommunityGateway(service, port=0, coalesce=True,
                                   coalesce_window=0.4).start()
        host, port = gateway.address
        results = []
        lock = threading.Lock()

        def fire(vertex):
            with ServerClient(host, port) as c:
                response = c.query(Query(vertex=vertex, k=2))
            with lock:
                results.append(response)

        threads = [
            threading.Thread(target=fire, args=(v,)) for v in ("D", "E", "A")
        ]
        for t in threads:
            t.start()
        time.sleep(0.15)  # all three queued behind the window
        gateway.close()  # drain: they must still be answered
        for t in threads:
            t.join()
        assert len(results) == 3
        assert {r.query.vertex for r in results} == {"D", "E", "A"}

    def test_close_wakes_parked_long_poll(self, monkeypatch):
        """A drain must not wait out a long-poll: it answers 200, count 0."""
        gateway = CommunityGateway(
            CommunityService(fig1_profiled_graph(), default_k=2), port=0,
            coalesce=False,
        ).start()
        host, port = gateway.address
        with ServerClient(host, port) as client:
            sub, snapshot = client.subscribe("B", k=2)
        in_poll = threading.Event()
        poll = gateway.subscriptions.poll

        def signalling_poll(*args, **kwargs):
            in_poll.set()
            return poll(*args, **kwargs)

        monkeypatch.setattr(gateway.subscriptions, "poll", signalling_poll)
        outcome = []

        def park():
            with ServerClient(host, port, timeout=30.0, retries=0) as c:
                outcome.append(c.poll(sub.id, snapshot.event_id, timeout=8.0))

        parked = threading.Thread(target=park)
        parked.start()
        assert in_poll.wait(timeout=5.0)
        started = time.monotonic()
        gateway.close()
        drained_in = time.monotonic() - started
        parked.join(timeout=10.0)
        assert not parked.is_alive()
        assert drained_in < 1.0, f"drain waited {drained_in:.2f}s on a long-poll"
        # A normal answer (ServerClient raises on anything but a 200).
        assert outcome == [[]]

    def test_close_answers_parked_poll_in_flight_write_logs(
        self, tmp_path, monkeypatch
    ):
        """A parked long-poll answers 200, count 0, as the drain begins; an
        update acknowledged *during* the drain still reaches the WAL and
        its diff still reaches the drain's checkpoint."""
        service = CommunityService(
            fig1_profiled_graph(), default_k=2, storage_dir=tmp_path
        )
        gateway = CommunityGateway(service, port=0, coalesce=False).start()
        host, port = gateway.address
        with ServerClient(host, port) as client:
            sub, snapshot = client.subscribe("B", k=2)

        # What the WAL and the retained window held when the drain
        # checkpointed.
        before_checkpoint = []
        checkpoint = service.snapshot

        def recording_checkpoint():
            before_checkpoint.append((
                service.storage.wal.records(),
                service.subscriptions.events_since(sub.id),
            ))
            return checkpoint()

        monkeypatch.setattr(service, "snapshot", recording_checkpoint)
        in_handler = threading.Event()
        apply_updates = gateway.apply_updates

        def signalling_apply_updates(updates):
            in_handler.set()
            return apply_updates(updates)

        monkeypatch.setattr(gateway, "apply_updates", signalling_apply_updates)
        in_poll = threading.Event()
        poll = gateway.subscriptions.poll

        def signalling_poll(*args, **kwargs):
            in_poll.set()
            return poll(*args, **kwargs)

        monkeypatch.setattr(gateway.subscriptions, "poll", signalling_poll)
        polled = []

        def park():
            with ServerClient(host, port, timeout=30.0, retries=0) as c:
                polled.append(c.poll(sub.id, snapshot.event_id, timeout=8.0))

        parked = threading.Thread(target=park)
        parked.start()
        assert in_poll.wait(timeout=5.0)
        receipts = []

        def write():
            with ServerClient(host, port, timeout=30.0, retries=0) as c:
                receipts.append(c.update([
                    {"op": "add_vertex", "u": "Z", "labels": ["ML", "AI"]},
                    {"op": "add_edge", "u": "Z", "v": "B"},
                    {"op": "add_edge", "u": "Z", "v": "C"},
                    {"op": "add_edge", "u": "Z", "v": "D"},
                ])["receipt"])

        writer = threading.Thread(target=write)
        closer = threading.Thread(target=gateway.close)
        with service.explorer.mutation_lock:  # hold the write in its handler
            writer.start()
            assert in_handler.wait(timeout=5.0)
            started = time.monotonic()
            closer.start()
            parked.join(timeout=5.0)
            ended_in = time.monotonic() - started
            assert not parked.is_alive()
            assert polled == [[]]  # a normal answer: nothing new yet
            assert ended_in < 1.0, f"the poll outlived the drain by {ended_in:.2f}s"
            assert closer.is_alive() and not receipts  # the write is mid-drain
        writer.join(timeout=10.0)
        closer.join(timeout=10.0)
        assert not writer.is_alive() and not closer.is_alive()
        (receipt,) = receipts
        ((records, window),) = before_checkpoint
        assert [r.subscription is not None for r in records] == [True, False]
        assert records[1].version == receipt["version"]
        assert [d.event_id for d in window] == [1, 2]
        assert window[1].graph_version == receipt["version"]
        assert "Z" in window[1].joined
        assert service.storage.wal.num_records == 0
        _, (entry,) = load_checkpoint(service.storage.snapshot_path)
        assert "Z" in entry["head"]["joined"]

    def test_health_reports_draining_after_close(self):
        gateway = CommunityGateway(fig1_profiled_graph(), port=0).start()
        assert gateway.health()["status"] == "ok"
        gateway.close()
        assert gateway.health()["status"] == "draining"


class TestUpdateRaces:
    def test_queries_racing_updates_report_consistent_versions(self):
        pg = fig1_profiled_graph()
        with serving(CommunityService(pg), coalesce=True,
                     coalesce_window=0.002) as (gateway, client):
            stop = threading.Event()
            per_client_versions = {}
            errors = []
            applied_versions = []

            def querier(worker_id, vertex):
                versions = []
                try:
                    with ServerClient(client.host, client.port) as c:
                        for _ in range(15):
                            versions.append(
                                c.query(Query(vertex=vertex, k=2)).graph_version
                            )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                per_client_versions[worker_id] = versions

            def updater():
                try:
                    with ServerClient(client.host, client.port) as c:
                        for i in range(8):
                            receipt = c.update([("add_edge", f"U{i}", "C")])
                            applied_versions.append(receipt["graph_version"])
                            time.sleep(0.01)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                finally:
                    stop.set()

            threads = [
                threading.Thread(target=querier, args=(i, v))
                for i, v in enumerate(["D", "E", "A", "D"])
            ] + [threading.Thread(target=updater)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert not errors, errors
            final_version = applied_versions[-1]
            assert final_version == pg.version
            for worker_id, versions in per_client_versions.items():
                # Sequential requests from one client never go back in time,
                # and every reported version is a version the graph held.
                assert versions == sorted(versions), (worker_id, versions)
                assert all(0 <= v <= final_version for v in versions)
            # The service ends on the updated graph: a fresh probe reflects
            # the final version.
            assert client.query(Query(vertex="D", k=2)).graph_version == final_version


# ----------------------------------------------------------------------
# observability endpoints + client surface
# ----------------------------------------------------------------------
class TestObservability:
    def test_healthz_payload(self):
        with serving(fig1_profiled_graph()) as (gateway, client):
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["coalescing"] is True
        assert health["graph_version"] == 0
        assert health["uptime_seconds"] >= 0

    def test_stats_payload(self):
        with serving(fig1_profiled_graph()) as (gateway, client):
            client.query(Query(vertex="D", k=2))
            client.query(Query(vertex="D", k=2))
            stats = client.stats()
        assert stats["engine"]["queries_served"] == 1
        assert stats["engine"]["cache"]["hits"] == 1
        assert stats["graph"]["version"] == 0
        assert stats["coalescer"]["submitted"] == 2
        recorded = {
            (r["method"], r["endpoint"], r["status"]) for r in
            stats["server"]["requests"]
        }
        assert ("POST", "/query", 200) in recorded

    def test_metrics_prometheus_format(self):
        with serving(fig1_profiled_graph()) as (gateway, client):
            client.query(Query(vertex="D", k=2))
            text = client.metrics()
        families = set()
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("#"):
                kind, name = line.split()[1:3]
                if kind == "TYPE":
                    families.add(name)
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample value parses
            assert name_part.split("{")[0] in families
        for expected in (
            "repro_queries_served_total",
            "repro_cache_hits_total",
            "repro_graph_version",
            "repro_coalescer_batches_total",
            "repro_http_requests_total",
            "repro_server_uptime_seconds",
        ):
            assert expected in families, expected

    def test_unknown_paths_share_one_bounded_counter(self):
        with serving(fig1_profiled_graph()) as (gateway, client):
            for path in ("/scan1", "/scan2", "/query/"):
                try:
                    client._request("GET", path)
                except ServerError:
                    pass
            stats = client.stats()
        endpoints = {r["endpoint"] for r in stats["server"]["requests"]}
        # Scanner garbage buckets into one label; "/query/" folds into the
        # canonical route instead of splitting its counter.
        assert "/scan1" not in endpoints and "/scan2" not in endpoints
        assert "(unknown)" in endpoints
        assert "/query" in endpoints

    def test_oversized_content_length_refused_before_read(self):
        with serving(fig1_profiled_graph()) as (gateway, client):
            gateway.max_body_bytes = 64
            with pytest.raises(ServerError) as excinfo:
                client.query_raw({"vertex": "D", "k": 2, "method": "x" * 128})
            assert excinfo.value.status == 413
            assert excinfo.value.error_type == "payload_too_large"
            # The connection was closed (unread body), but the client
            # reconnects transparently and the server still works.
            gateway.max_body_bytes = 8 * 1024 * 1024
            assert client.query(Query(vertex="D", k=2)).returned == 2
        with serving(fig1_profiled_graph(), coalesce=False) as (gateway, client):
            text = client.metrics()
        assert "repro_coalescer" not in text
        assert "repro_queries_served_total" in text

    @pytest.mark.parametrize("announced", [b"abc", b"-5"])
    def test_malformed_content_length_is_400_and_closes(self, announced):
        """A length the server cannot trust must not be read as 0: the body
        it leaves unread would be parsed as the next request line."""
        with serving(fig1_profiled_graph()) as (gateway, _client):
            with socket.create_connection(gateway.address, timeout=10) as sock:
                sock.sendall(
                    b"POST /query HTTP/1.1\r\nContent-Type: application/json\r\n"
                    b"Content-Length: " + announced + b"\r\n\r\n"
                    b'{"vertex": "D", "k": 2}'
                )
                response = http.client.HTTPResponse(sock)
                response.begin()
                payload = json.loads(response.read())
                assert response.status == 400
                assert payload["error"]["type"] == "invalid_input"
                assert "Content-Length" in payload["error"]["message"]
                assert response.getheader("Connection") == "close"
                try:
                    trailing = sock.recv(1024)
                except ConnectionResetError:  # closed over the unread body
                    trailing = b""
                assert trailing == b""  # no second answer for the body


class TestClientAndLifecycle:
    def test_client_overrides_and_errors(self):
        with serving(fig1_profiled_graph()) as (gateway, client):
            response = client.query(Query(vertex="D"), k=2, limit=1)
            assert response.returned == 1 and response.truncated
            with pytest.raises(ServerError) as excinfo:
                client.query(Query(vertex="missing", k=2))
            assert excinfo.value.status == 404
            assert excinfo.value.error_type == "vertex_not_found"

    def test_gateway_lifecycle_guards(self):
        gateway = CommunityGateway(fig1_profiled_graph(), port=0)
        with pytest.raises(RuntimeError):
            gateway.address
        gateway.start()
        with pytest.raises(RuntimeError):
            gateway.start()
        assert gateway.url.startswith("http://127.0.0.1:")
        gateway.close()
        gateway.close()  # idempotent

    def test_subscribe_stream_ends_typed_when_the_server_is_gone(self):
        gateway = CommunityGateway(fig1_profiled_graph(), port=0).start()
        with ServerClient(*gateway.address, retries=1, backoff=0.01) as client:
            sub, snapshot = client.subscribe("B", k=2)
            gateway.close()
            with pytest.raises(ServerError) as err:
                next(client.subscribe_stream(sub.id, snapshot.event_id))
        assert (err.value.status, err.value.error_type) == (503, "stream_ended")

    def test_gateway_rejects_non_service(self):
        from repro.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            CommunityGateway(object())

    def test_warm_builds_index_at_startup(self):
        service = CommunityService(fig1_profiled_graph())
        with serving(service, warm=True):
            assert service.explorer.index_ready


    def test_interrupt_during_announcement_drains(self, monkeypatch, capsys):
        """The deterministic form of the race below: the interrupt lands
        while `repro serve` is still printing its announcement."""
        from types import SimpleNamespace

        import repro.cli as cli

        class InterruptedWhileAnnouncing:
            role = "writer"
            service = SimpleNamespace(
                boot_report=None,
                stats=lambda: SimpleNamespace(queries_served=0, cache_hit_rate=0.0),
            )

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            @property
            def url(self):
                raise KeyboardInterrupt

            def wait(self):
                raise AssertionError("wait() is never reached")

        monkeypatch.setattr(
            cli, "_build_serving_role", lambda args: InterruptedWhileAnnouncing()
        )
        try:
            status = cli.main(["serve", "--dataset", "fig1", "--port", "0"])
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped cmd_serve's announcement")
        assert status == 0
        assert "shutting down" in capsys.readouterr().out

    @pytest.mark.parametrize("attempt", range(4))
    def test_sigint_right_after_ready_line_exits_cleanly(self, attempt):
        """A supervisor treats the first stdout line as readiness and may
        interrupt at once: that must drain and exit 0, not die with a
        KeyboardInterrupt traceback between the announcement and wait()."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--dataset", "acmdl",
             "--scale", "0.005", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        try:
            banner = proc.stdout.readline()
            assert "serving acmdl at http://127.0.0.1:" in banner, banner
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert "Traceback" not in err, err
        assert proc.returncode == 0, err
        assert "shutting down" in out


# ----------------------------------------------------------------------
# client retry safety: non-idempotent replay and Retry-After parsing
# ----------------------------------------------------------------------
class TestRetrySafety:
    def test_update_replay_after_connection_death_applies_once(self, monkeypatch):
        """A POST /update whose connection dies after the server-side apply
        but before the response must not double-apply on the client's
        automatic replay — the idempotency key maps the retry back to the
        original receipt."""
        import repro.server.app as app_mod

        original = app_mod.handle_request
        killed = []

        def dying(gateway, method, path, body, headers=None):
            response = original(gateway, method, path, body, headers)
            if path == "/update" and not killed:
                killed.append(True)
                # The handler thread dies before writing the response: the
                # client sees the connection drop exactly between apply
                # and acknowledgement.
                raise ConnectionError("simulated death after apply")
            return response

        with serving(fig1_profiled_graph()) as (gateway, client):
            gateway._server.handle_error = lambda *args: None  # silence traceback
            monkeypatch.setattr(app_mod, "handle_request", dying)
            before = gateway.service.pg.version
            # remove_vertex is the op whose keyless replay is loudest: the
            # second apply would 404 (the vertex is already gone), so the
            # old client surfaced an error for an update that succeeded —
            # and an add_edge replay would report applied=0, corrupting
            # the receipt. Both must now come back as the first apply.
            receipt = client.update([("remove_vertex", "H"), ("add_edge", "A", "Z")])
            assert killed, "the simulated connection death never fired"
            assert receipt["receipt"]["applied"] == 2
            assert gateway.service.pg.version == before + 2
            assert receipt["graph_version"] == before + 2

    def test_same_key_replay_returns_original_receipt(self):
        with serving(fig1_profiled_graph()) as (gateway, client):
            before = gateway.service.pg.version
            first = client.update([("add_edge", "A", "J")], idempotency_key="k-1")
            replay = client.update([("add_edge", "A", "J")], idempotency_key="k-1")
            assert replay == first
            assert gateway.service.pg.version == before + 1
            # A fresh key is a fresh batch (the edge exists, so no-op receipt).
            other = client.update([("add_edge", "A", "J")], idempotency_key="k-2")
            assert other["receipt"]["applied"] == 0

    def test_idempotency_key_must_be_a_nonempty_string(self):
        gateway = CommunityGateway(fig1_profiled_graph(), port=0)
        for bad in ("", 7, None, ["x"]):
            body = json.dumps(
                {"updates": [{"op": "add_edge", "u": "A", "v": "J"}],
                 "idempotency_key": bad}
            ).encode()
            response = handle_request(gateway, "POST", "/update", body)
            assert response.status == 400, bad

    def test_receipt_cache_is_bounded(self, monkeypatch):
        import repro.server.gateway as gateway_mod

        monkeypatch.setattr(gateway_mod, "IDEMPOTENCY_CACHE_SIZE", 2)
        gateway = CommunityGateway(fig1_profiled_graph(), port=0)
        for i in range(3):
            gateway.apply_updates_idempotent(
                [GraphUpdate.coerce(("add_vertex", f"N{i}"))],
                idempotency_key=f"key-{i}",
            )
        assert list(gateway._idempotency_receipts) == ["key-1", "key-2"]

    def test_retry_after_parses_both_rfc_forms(self):
        assert _parse_retry_after(None) is None
        assert _parse_retry_after("2.5") == 2.5
        assert _parse_retry_after(" 0 ") == 0.0
        assert _parse_retry_after("-3") == 0.0  # clamp, never negative sleep
        future = email.utils.formatdate(time.time() + 60, usegmt=True)
        parsed = _parse_retry_after(future)
        assert parsed is not None and 30 < parsed <= 61
        past = email.utils.formatdate(time.time() - 60, usegmt=True)
        assert _parse_retry_after(past) == 0.0
        # Unparseable values read as absent — the old float() crashed here.
        for garbage in ("soon", "Wed, 99 Nonsense", "1e", ""):
            assert _parse_retry_after(garbage) is None

    def test_http_date_retry_after_reaches_server_error(self, monkeypatch):
        """A 429 whose Retry-After is an HTTP-date must surface as seconds
        on the ServerError instead of crashing the client."""
        import repro.server.app as app_mod

        original = app_mod.handle_request
        stamp = email.utils.formatdate(time.time() + 30, usegmt=True)

        def dated(gateway, method, path, body, headers=None):
            response = original(gateway, method, path, body, headers)
            if path == "/query":
                return app_mod._error(
                    429, "queue_full", "busy", headers=(("Retry-After", stamp),)
                )
            return response

        with serving(fig1_profiled_graph()) as (gateway, client):
            monkeypatch.setattr(app_mod, "handle_request", dated)
            with pytest.raises(ServerError) as excinfo:
                client.query(Query(vertex="D", k=2))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert 0 < excinfo.value.retry_after <= 31
