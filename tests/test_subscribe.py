"""Unit coverage for the subscription tier: matcher, manager, routes.

The streaming/differential gauntlets live in ``test_subscribe_stream.py``
and the crash/resume suite in ``test_subscribe_crash.py``; this file pins
the per-component contracts those suites build on:

* :class:`~repro.subscribe.matcher.SubscriptionMatcher` — the dirty-label
  decision table and its selectivity counters;
* the :class:`~repro.api.subscription.Subscription` /
  :class:`~repro.api.subscription.CommunityDiff` wire types;
* :class:`~repro.subscribe.manager.SubscriptionManager` — registration
  snapshots, selective re-evaluation on fig1's two label partitions,
  event retention/resume semantics, cursor reads through ``poll`` (a
  reader that lags past the window re-baselines with one ``reset``), and
  durability through a ``storage_dir=`` service's WAL and snapshot;
* the four HTTP routes, driven through ``handle_request`` in-process.
"""

from __future__ import annotations

import json
import random
import threading
import time
from types import SimpleNamespace

import pytest

from repro.api import CommunityDiff, CommunityService, Subscription
from repro.datasets import fig1_profiled_graph
from repro.errors import InvalidInputError, ReproError
from repro.index.maintenance import BatchDamage
from repro.storage import load_checkpoint
from repro.subscribe import (
    SubscriptionManager,
    SubscriptionMatcher,
    SubscriptionNotFoundError,
)


#: The churn the manager tests drive: Z joins B's community, then leaves.
_ADD_Z = [
    {"op": "add_vertex", "u": "Z", "labels": ["ML", "AI"]},
    {"op": "add_edge", "u": "Z", "v": "B"},
    {"op": "add_edge", "u": "Z", "v": "C"},
    {"op": "add_edge", "u": "Z", "v": "D"},
]
_REMOVE_Z = [{"op": "remove_vertex", "u": "Z"}]


def _service() -> CommunityService:
    return CommunityService(fig1_profiled_graph(), default_k=2)


def _members(service: CommunityService, vertex, k=None) -> frozenset:
    """The watched set by full recompute: union of all community vertices."""
    result = service.explorer.explore(vertex, k=k)
    out: set = set()
    for community in result.communities:
        out |= community.vertices
    return frozenset(out)


# ---------------------------------------------------------------------------
# matcher
# ---------------------------------------------------------------------------
class TestMatcher:
    def _damage(self, pg, updates) -> BatchDamage:
        """The damage a batch of dict-form updates would report."""
        service = CommunityService(pg)
        captured = {}

        def tap(receipt, damage):
            captured["damage"] = damage

        service.explorer.add_update_hook(tap)
        service.apply_updates(updates)
        return captured["damage"]

    def test_no_damage_information_over_approximates(self):
        assert SubscriptionMatcher.is_affected(frozenset({1}), False, "q", None)

    def test_full_damage_over_approximates(self):
        damage = BatchDamage(full=True)
        assert SubscriptionMatcher.is_affected(frozenset({1}), False, "q", damage)

    def test_sensitive_subscription_always_matches(self):
        damage = BatchDamage(dirty_labels=frozenset({9}))
        assert SubscriptionMatcher.is_affected(frozenset({1}), True, "q", damage)

    def test_empty_footprint_always_matches(self):
        damage = BatchDamage(dirty_labels=frozenset({9}))
        assert SubscriptionMatcher.is_affected(frozenset(), False, "q", damage)

    def test_query_vertex_touched_matches(self):
        damage = BatchDamage(dirty_labels=frozenset({9}), touched=frozenset({"q"}))
        assert SubscriptionMatcher.is_affected(frozenset({1}), False, "q", damage)

    def test_query_vertex_removed_matches(self):
        damage = BatchDamage(dirty_labels=frozenset({9}), removed=frozenset({"q"}))
        assert SubscriptionMatcher.is_affected(frozenset({1}), False, "q", damage)

    def test_disjoint_labels_skip(self):
        damage = BatchDamage(
            dirty_labels=frozenset({9}), touched=frozenset({"x", "y"})
        )
        assert not SubscriptionMatcher.is_affected(
            frozenset({1, 2}), False, "q", damage
        )

    def test_intersecting_labels_match(self):
        damage = BatchDamage(dirty_labels=frozenset({2, 9}))
        assert SubscriptionMatcher.is_affected(frozenset({1, 2}), False, "q", damage)

    def test_decide_counts_selectivity(self):
        matcher = SubscriptionMatcher()
        assert matcher.selectivity == 1.0  # no decisions yet: pessimistic
        damage = BatchDamage(dirty_labels=frozenset({9}))
        assert not matcher.decide(frozenset({1}), False, "q", damage)
        assert matcher.decide(frozenset({9}), False, "q", damage)
        assert matcher.decisions == 2
        assert matcher.affected == 1
        assert matcher.selectivity == 0.5
        assert matcher.stats()["selectivity"] == 0.5

    def test_real_damage_from_engine_batch(self):
        """Edits inside the F/G/H triangle dirty only the labels both
        endpoints share — which never include the CM branch."""
        pg = fig1_profiled_graph()
        tax = pg.taxonomy
        damage = self._damage(
            pg, [{"op": "remove_edge", "u": "F", "v": "G"}]
        )
        assert not damage.full
        cm_branch = {tax.id_of("CM"), tax.id_of("ML"), tax.id_of("AI")}
        assert damage.dirty_labels.isdisjoint(cm_branch)
        # The B-side subscription's root-free footprint misses the batch.
        footprint = pg.labels("B") - {tax.root}
        assert not SubscriptionMatcher.is_affected(footprint, False, "B", damage)


# ---------------------------------------------------------------------------
# wire types
# ---------------------------------------------------------------------------
class TestWireTypes:
    def test_subscription_new_assigns_id(self):
        sub = Subscription.new("B", k=2)
        assert sub.id
        assert Subscription.from_dict(sub.to_dict()) == sub

    def test_subscription_normalizes_method(self):
        assert Subscription.new("B", method="ADV-P").method == "adv-P"

    def test_subscription_rejects_unknown_fields(self):
        with pytest.raises(InvalidInputError):
            Subscription.from_dict({"vertex": "B", "frequency": "hourly"})

    def test_subscription_requires_vertex(self):
        with pytest.raises(InvalidInputError):
            Subscription.from_dict({"k": 2})

    def test_subscription_rejects_bad_k(self):
        with pytest.raises(InvalidInputError):
            Subscription.new("B", k=-1)
        with pytest.raises(InvalidInputError):
            Subscription.new("B", k=True)

    @pytest.mark.parametrize(
        "payload",
        [
            {"vertex": [], "k": 2},
            {"vertex": {"a": 1}, "k": 2},
            {"vertex": "D", "k": 2, "method": 3},
            {"vertex": "D", "k": 2, "method": ["adv-P"]},
        ],
    )
    def test_subscription_rejects_junk_vertex_and_method(self, payload):
        with pytest.raises(InvalidInputError):
            Subscription.from_dict(payload)

    def test_subscription_from_dict_fuzz_only_raises_repro_errors(self):
        """Seeded junk bodies: a registration either parses or is refused
        with a typed error — it never reaches the WAL as a traceback."""
        rng = random.Random(20)
        junk = [None, True, 0, -3, 2.5, "", "B", "adv-P", "ADV-P", "nope", "k-core",
                [], ["adv-P"], {}, {"a": 1}, ("B",), 2**70]
        fields = ["id", "vertex", "k", "method", "cohesion", "extra"]
        parsed = 0
        for _ in range(3000):
            payload = {f: rng.choice(junk) for f in fields if rng.random() < 0.6}
            try:
                Subscription.from_dict(payload)
            except ReproError:
                continue
            parsed += 1
        assert parsed  # the fuzz also reaches the accepting side

    def test_diff_apply_composes(self):
        base = frozenset({"A", "B"})
        diff = CommunityDiff(
            subscription_id="s", event_id=2, graph_version=3,
            joined=("C",), left=("A",),
        )
        assert diff.apply_to(base) == frozenset({"B", "C"})

    def test_reset_diff_replaces(self):
        diff = CommunityDiff(
            subscription_id="s", event_id=1, graph_version=0,
            joined=("X", "Y"), reset=True,
        )
        assert diff.apply_to(frozenset({"A"})) == frozenset({"X", "Y"})

    def test_reset_with_left_rejected(self):
        with pytest.raises(InvalidInputError):
            CommunityDiff(
                subscription_id="s", event_id=1, graph_version=0,
                left=("A",), reset=True,
            )

    def test_diff_roundtrip(self):
        diff = CommunityDiff(
            subscription_id="s", event_id=4, graph_version=7,
            joined=("Z", "A"), left=("B",),
        )
        again = CommunityDiff.from_dict(json.loads(json.dumps(diff.to_dict())))
        assert again == diff
        assert again.joined == ("A", "Z")  # deterministic wire order


# ---------------------------------------------------------------------------
# manager
# ---------------------------------------------------------------------------
class TestManager:
    def test_register_snapshot_matches_recompute(self):
        service = _service()
        manager = SubscriptionManager(service)
        snap = manager.register(Subscription.new("B", k=2))
        assert snap.reset and snap.event_id == 1
        assert frozenset(snap.joined) == _members(service, "B", k=2)
        assert manager.members(snap.subscription_id) == frozenset(snap.joined)
        manager.close()

    def test_selective_reevaluation_across_partitions(self):
        """Edits confined to the F/G/H triangle must not re-run B's query."""
        service = _service()
        manager = SubscriptionManager(service)
        sub = manager.register(Subscription.new("B", k=2))
        service.apply_updates([{"op": "remove_edge", "u": "F", "v": "G"}])
        stats = manager.stats()
        assert stats["last_batch"] == {"subscriptions": 1, "reevaluated": 0}
        # An edit inside B's partition does re-evaluate (and may diff).
        service.apply_updates([{"op": "remove_edge", "u": "B", "v": "C"}])
        stats = manager.stats()
        assert stats["last_batch"]["reevaluated"] == 1
        assert manager.members(sub.subscription_id) == _members(service, "B", k=2)
        manager.close()

    def test_diff_emitted_when_membership_changes(self):
        service = _service()
        manager = SubscriptionManager(service)
        sub_id = manager.register(Subscription.new("B", k=2)).subscription_id
        before = manager.members(sub_id)
        service.apply_updates(
            [
                {"op": "add_vertex", "u": "Z", "labels": ["ML", "AI"]},
                {"op": "add_edge", "u": "Z", "v": "B"},
                {"op": "add_edge", "u": "Z", "v": "C"},
                {"op": "add_edge", "u": "Z", "v": "D"},
            ]
        )
        events = manager.events_since(sub_id, last_event_id=1)
        assert len(events) == 1
        diff = events[0]
        assert not diff.reset
        assert diff.event_id == 2
        assert diff.graph_version == service.pg.version
        assert diff.apply_to(before) == _members(service, "B", k=2)
        manager.close()

    def test_events_since_caught_up_and_gap(self):
        service = _service()
        manager = SubscriptionManager(service, event_log_size=2)
        sub_id = manager.register(Subscription.new("B", k=2)).subscription_id
        assert manager.events_since(sub_id, last_event_id=1) == []
        for i in range(4):  # churn Z in and out: 4 diffs, window keeps 2
            if i % 2 == 0:
                service.apply_updates(
                    [
                        {"op": "add_vertex", "u": "Z", "labels": ["ML", "AI"]},
                        {"op": "add_edge", "u": "Z", "v": "B"},
                        {"op": "add_edge", "u": "Z", "v": "C"},
                        {"op": "add_edge", "u": "Z", "v": "D"},
                    ]
                )
            else:
                service.apply_updates([{"op": "remove_vertex", "u": "Z"}])
        tail = manager.events_since(sub_id, last_event_id=4)
        assert [d.event_id for d in tail] == [5]
        # Cursor 1 predates the retention window: synthetic reset.
        recovered = manager.events_since(sub_id, last_event_id=1)
        assert len(recovered) == 1
        assert recovered[0].reset
        assert frozenset(recovered[0].joined) == manager.members(sub_id)
        manager.close()

    def test_unknown_subscription_raises(self):
        manager = SubscriptionManager(_service())
        with pytest.raises(SubscriptionNotFoundError):
            manager.events_since("nope", last_event_id=0)
        with pytest.raises(SubscriptionNotFoundError):
            manager.members("nope")
        assert manager.unregister("nope") is False
        manager.close()

    def test_unregister_forgets(self):
        manager = SubscriptionManager(_service())
        sub_id = manager.register(Subscription.new("B", k=2)).subscription_id
        assert len(manager) == 1
        assert manager.unregister(sub_id) is True
        assert len(manager) == 0
        with pytest.raises(SubscriptionNotFoundError):
            manager.get(sub_id)
        manager.close()

    def test_poll_timeout_returns_empty(self):
        manager = SubscriptionManager(_service())
        sub_id = manager.register(Subscription.new("B", k=2)).subscription_id
        assert manager.poll(sub_id, last_event_id=1, timeout=0.05) == []
        manager.close()

    def test_poll_returns_backlog_immediately(self):
        manager = SubscriptionManager(_service())
        sub_id = manager.register(Subscription.new("B", k=2)).subscription_id
        events = manager.poll(sub_id, last_event_id=0, timeout=0.0)
        assert len(events) == 1 and events[0].reset

    def test_consumer_receives_pushed_diff(self):
        service = _service()
        manager = SubscriptionManager(service)
        sub_id = manager.register(Subscription.new("B", k=2)).subscription_id
        # A reader parked in poll() before the write is woken by it.
        parked: list = []
        reader = threading.Thread(
            target=lambda: parked.extend(
                manager.poll(sub_id, last_event_id=1, timeout=10.0)
            )
        )
        reader.start()
        deadline = time.monotonic() + 5.0
        while manager.stats()["consumers"] != 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert manager.stats()["consumers"] == 1
        service.apply_updates(_ADD_Z)
        reader.join(timeout=5.0)
        assert not reader.is_alive(), "the write did not wake the parked reader"
        assert parked and parked[0].event_id == 2
        assert "Z" in parked[0].joined
        assert manager.stats()["consumers"] == 0
        manager.close()

    def test_lagging_stream_reader_gets_one_reset(self):
        """A cursor that stops reading costs nothing and resumes with a reset.

        The successor of slow-consumer eviction: ``event_log_size + 5``
        diffs are published while one reader's cursor stands still; its
        next ``POST /subscribe/poll`` answers exactly one ``reset`` at the
        head, and the subscription and a reader that kept up are
        unaffected.
        """
        from repro.server.app import ROUTES, handle_request

        window = 4
        service = _service()
        manager = SubscriptionManager(service, event_log_size=window)
        # handle_request's whole contract with a serving role.
        role = SimpleNamespace(
            subscriptions=manager,
            max_body_bytes=1 << 20,
            routes=lambda: ROUTES,
        )
        sub_id = manager.register(Subscription.new("B", k=2)).subscription_id

        def poll(cursor):
            response = handle_request(
                role, "POST", "/subscribe/poll",
                json.dumps({"id": sub_id, "last_event_id": cursor, "timeout": 0}).encode(),
            )
            assert response.status == 200
            return [CommunityDiff.from_dict(e) for e in json.loads(response.body)["events"]]

        stalled = 1  # this reader reads none of the diffs below
        keeping_up = 1
        for i in range(window + 5):
            service.apply_updates(_ADD_Z if i % 2 == 0 else _REMOVE_Z)
            (diff,) = poll(keeping_up)
            assert not diff.reset and diff.event_id == keeping_up + 1
            keeping_up = diff.event_id
        assert manager.stats()["events_published"] == window + 5
        (reset,) = poll(stalled)
        assert reset.reset and reset.event_id == keeping_up
        assert reset.apply_to(frozenset()) == manager.members(sub_id)
        assert manager.members(sub_id) == _members(service, "B", k=2)
        # Exactly one: re-baselined, the reader is a normal reader again.
        service.apply_updates(_REMOVE_Z)
        (following,) = poll(reset.event_id)
        assert not following.reset and following.event_id == keeping_up + 1
        assert following.apply_to(reset.apply_to(frozenset())) == manager.members(sub_id)
        manager.close()

    def test_durable_restart_replays_and_catches_up(self, tmp_path):
        service = _durable(tmp_path)
        manager = service.subscriptions
        sub = Subscription.new("B", k=2)
        manager.register(sub)
        service.apply_updates(_ADD_Z)
        live = manager.events_since(sub.id)
        assert [d.event_id for d in live] == [1, 2]
        service.close()  # a crash: no checkpoint, the WAL holds everything
        # Reboot: the registration record restores the subscription and
        # the replayed batch re-derives its diff with the same event id.
        reborn = _durable(tmp_path)
        manager2 = reborn.subscriptions
        assert [s.id for s in manager2.subscriptions()] == [sub.id]
        assert manager2.events_since(sub.id) == live
        assert manager2.members(sub.id) == _members(reborn, "B", k=2)
        # Later batches continue the event ids and compose onto the window.
        reborn.apply_updates([{"op": "remove_edge", "u": "B", "v": "C"}])
        events = manager2.events_since(sub.id, last_event_id=2)
        composed = live[-1].apply_to(live[0].apply_to(frozenset()))
        for diff in events:
            assert diff.event_id >= 3
            composed = diff.apply_to(composed)
        assert composed == _members(reborn, "B", k=2)
        reborn.close()

    def test_compact_log_shrinks_to_registrations(self, tmp_path):
        service = _durable(tmp_path)
        manager = service.subscriptions
        sub = Subscription.new("B", k=2)
        manager.register(sub)
        gone = Subscription.new("D", k=2)
        manager.register(gone)
        manager.unregister(gone.id)
        service.apply_updates(_ADD_Z)
        service.snapshot()
        # The checkpoint folded the WAL: the snapshot's subscription
        # section holds one entry (head and window) per live subscription,
        # nothing else.
        assert service.storage.wal.num_records == 0
        _, section = load_checkpoint(service.storage.snapshot_path)
        assert [entry["subscription"]["id"] for entry in section] == [sub.id]
        snap = CommunityDiff.from_dict(section[0]["head"])
        assert snap.reset and frozenset(snap.joined) == manager.members(sub.id)
        assert snap.event_id == 2
        window = manager.events_since(sub.id)
        assert [CommunityDiff.from_dict(d) for d in section[0]["events"]] == window
        service.close()
        # The compacted state boots a manager in the same state.
        reborn = _durable(tmp_path)
        assert [s.id for s in reborn.subscriptions.subscriptions()] == [sub.id]
        assert reborn.subscriptions.members(sub.id) == frozenset(snap.joined)
        assert reborn.subscriptions.events_since(sub.id) == window
        reborn.close()

    def test_disconnect_consumers_keeps_journal_live(self, tmp_path):
        """Drain phase 1: streams end, but in-flight writes still produce diffs."""
        service = _durable(tmp_path)
        manager = service.subscriptions
        sub_id = manager.register(Subscription.new("B", k=2)).subscription_id
        manager.disconnect_consumers()
        started = time.monotonic()
        assert manager.poll(sub_id, last_event_id=1, timeout=5.0) == []
        assert time.monotonic() - started < 1.0  # reads no longer block
        # A write that was in flight during the drain still logs and
        # still produces its diff.
        service.apply_updates(_ADD_Z)
        records = service.storage.wal.records()
        assert [r.subscription is not None for r in records] == [True, False]
        # New readers during the drain get the backlog, then an empty read.
        batch = manager.poll(sub_id, last_event_id=1, timeout=5.0)
        assert batch and batch[0].event_id == 2
        assert manager.poll(sub_id, batch[-1].event_id, timeout=5.0) == []
        manager.close()
        service.close()
        reborn = _durable(tmp_path)
        assert reborn.subscriptions.events_since(sub_id, last_event_id=1) == batch
        reborn.close()


def _durable(tmp_path) -> CommunityService:
    """fig1 served from ``tmp_path``: booted from whatever the directory holds."""
    return CommunityService(fig1_profiled_graph(), default_k=2, storage_dir=tmp_path)


# ---------------------------------------------------------------------------
# HTTP routes (in-process, no socket)
# ---------------------------------------------------------------------------
class TestRoutes:
    @pytest.fixture()
    def gateway(self):
        from repro.server.gateway import CommunityGateway

        gw = CommunityGateway(_service(), coalesce=False)
        try:
            yield gw
        finally:
            gw.close()

    def _call(self, gateway, method, path, payload=None):
        from repro.server.app import handle_request

        body = b"" if payload is None else json.dumps(payload).encode()
        response = handle_request(gateway, method, path, body)
        decoded = json.loads(response.body) if response.body else {}
        return response.status, decoded

    def test_subscribe_roundtrip(self, gateway):
        status, decoded = self._call(
            gateway, "POST", "/subscribe", {"vertex": "B", "k": 2}
        )
        assert status == 200
        sub = Subscription.from_dict(decoded["subscription"])
        snap = CommunityDiff.from_dict(decoded["snapshot"])
        assert snap.reset and snap.subscription_id == sub.id
        status, decoded = self._call(
            gateway, "POST", "/subscribe/poll",
            {"id": sub.id, "last_event_id": 0, "timeout": 0},
        )
        assert status == 200
        assert decoded["count"] == 1
        assert decoded["events"][0]["reset"] is True
        status, _ = self._call(gateway, "POST", "/unsubscribe", {"id": sub.id})
        assert status == 200

    def test_subscribe_rejects_unknown_fields(self, gateway):
        status, decoded = self._call(
            gateway, "POST", "/subscribe", {"vertex": "B", "cadence": "fast"}
        )
        assert status == 400
        assert decoded["error"]["type"] == "invalid_input"

    def test_unsubscribe_unknown_is_404(self, gateway):
        status, decoded = self._call(gateway, "POST", "/unsubscribe", {"id": "nope"})
        assert status == 404
        assert decoded["error"]["type"] == "subscription_not_found"

    def test_poll_unknown_is_404(self, gateway):
        status, _ = self._call(
            gateway, "POST", "/subscribe/poll", {"id": "nope", "last_event_id": 0}
        )
        assert status == 404

    def test_poll_rejects_bad_cursor(self, gateway):
        status, _ = self._call(
            gateway, "POST", "/subscribe/poll", {"id": "s", "last_event_id": -1}
        )
        assert status == 400

    def test_stream_unknown_is_404(self, gateway):
        """The client's stream of polls ends on an unknown id with a 404;
        the server has no streaming route of its own."""
        from repro.server import CommunityGateway, ServerClient
        from repro.server.client import ServerError

        status, decoded = self._call(
            gateway, "POST", "/subscribe/stream", {"id": "nope"}
        )
        assert (status, decoded["error"]["type"]) == (404, "not_found")
        with CommunityGateway(_service(), port=0, coalesce=False) as live:
            with ServerClient(*live.address) as client, pytest.raises(ServerError) as err:
                next(client.subscribe_stream("nope"))
        assert err.value.status == 404
        assert err.value.error_type == "subscription_not_found"

    def test_health_and_stats_report_subscriptions(self, gateway):
        self._call(gateway, "POST", "/subscribe", {"vertex": "B", "k": 2})
        assert gateway.health()["subscriptions"] == 1
        stats = gateway.stats()["subscriptions"]
        assert stats["subscriptions"] == 1
        assert stats["durable"] is False
