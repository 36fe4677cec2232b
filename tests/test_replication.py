"""Tests for the replication tier (`repro.replication`), in-process.

Layered like the package: the frame codec with no transport at all,
:class:`~repro.storage.wal.WalCursor` semantics against a real log
file, then a live tier — :class:`WriterGateway`, :class:`ReplicaGateway`
and :class:`ReplicationRouter` over real sockets in one process —
exercising the consistency contract: routed reads equal direct service
answers, read-your-writes via ``X-Repro-Min-Version``, the bounded
``min_version`` deadline (503), the 307 write redirect off replicas,
and a checkpoint-forced resync. Subprocess failure injection (kill -9)
lives in ``tests/test_cluster.py``.
"""

import gc
import http.client
import io
import json
import random
import socket
import struct
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api import CommunityDiff, CommunityService, Query, Subscription
from repro.datasets import fig1_profiled_graph
from repro.errors import InvalidInputError
from repro.replication import (
    FrameError,
    FrameReader,
    HEARTBEAT,
    HELLO,
    RECORD,
    ReplicaGateway,
    ReplicationRouter,
    WriterGateway,
    decode_frame,
    encode_frame,
    record_frame,
    record_from_frame,
)
from repro.server import CommunityGateway, ServerClient, ServerError
from repro.server.gateway import DEFAULT_MAX_BODY_BYTES
from repro.storage import WalRecord, WriteAheadLog

#: Label-free updates are valid against any dataset's taxonomy.
UPDATES = [
    {"op": "add_vertex", "u": "R1"},
    {"op": "add_edge", "u": "R1", "v": "A"},
    {"op": "add_edge", "u": "R1", "v": "B"},
]

PROBE = Query(vertex="A", k=2)

#: Z1 joins the {B, C, D} community of Fig. 1.
ADD_Z1 = [
    {"op": "add_vertex", "u": "Z1", "labels": ["ML", "AI"]},
    {"op": "add_edge", "u": "Z1", "v": "B"},
    {"op": "add_edge", "u": "Z1", "v": "C"},
    {"op": "add_edge", "u": "Z1", "v": "D"},
]


def _wait_until(predicate, timeout=15.0, interval=0.02, what="condition"):
    """Poll ``predicate`` until truthy; fail loudly on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


def _url(gateway) -> str:
    host, port = gateway.address
    return f"http://{host}:{port}"


def _windows(gateway_or_service) -> dict:
    """Every subscription's retained window and members, keyed by id.

    Diffs compare by event id, version and reset, with ``joined`` and
    ``left`` as sets.
    """
    manager = gateway_or_service.subscriptions
    return {
        sub.id: (
            [
                (d.event_id, d.graph_version, d.reset, frozenset(d.joined), frozenset(d.left))
                for d in manager.events_since(sub.id)
            ],
            manager.members(sub.id),
        )
        for sub in manager.subscriptions()
    }


def envelope(response):
    payload = response.to_dict()
    payload.pop("elapsed_ms", None)
    return payload


# ----------------------------------------------------------------------
# frame codec (no transport)
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_round_trip(self):
        payload = {"type": HELLO, "version": 7, "nested": {"a": [1, 2]}}
        assert decode_frame(encode_frame(payload)) == payload

    def test_crc_mismatch_raises(self):
        raw = bytearray(encode_frame({"type": HEARTBEAT, "version": 1}))
        raw[-1] ^= 0xFF  # flip a payload byte; the CRC no longer matches
        with pytest.raises(FrameError):
            decode_frame(bytes(raw))

    def test_truncated_frame_raises(self):
        raw = encode_frame({"type": HEARTBEAT, "version": 1})
        with pytest.raises(FrameError):
            decode_frame(raw[: len(raw) - 2])

    def test_record_frame_round_trip(self):
        record = WalRecord(3, 5, UPDATES[:2])
        frame = decode_frame(record_frame(record))
        assert frame["type"] == RECORD
        rebuilt = record_from_frame(frame)
        assert rebuilt.base == 3
        assert rebuilt.version == 5
        assert [u.to_dict() for u in rebuilt.updates] == [
            u.to_dict() for u in record.updates
        ]

    def test_reader_yields_frames_then_none_at_clean_eof(self):
        frames = [{"type": HELLO, "version": 1}, {"type": HEARTBEAT, "version": 2}]
        stream = io.BytesIO(b"".join(encode_frame(f) for f in frames))
        reader = FrameReader(stream)
        assert list(reader.frames()) == frames
        assert reader.frame() is None

    def test_reader_raises_on_mid_frame_eof(self):
        raw = encode_frame({"type": HELLO, "version": 1})
        reader = FrameReader(io.BytesIO(raw[: len(raw) - 3]))
        with pytest.raises(FrameError):
            reader.frame()

    def test_reader_rejects_absurd_length_header(self):
        # A length prefix far past the frame cap must fail fast, not
        # attempt a gigabyte read.
        bogus = struct.pack("<II", 1 << 30, 0)
        with pytest.raises(FrameError):
            FrameReader(io.BytesIO(bogus + b"x" * 16)).frame()


# ----------------------------------------------------------------------
# WAL cursor (real log file, no sockets)
# ----------------------------------------------------------------------
class TestWalCursor:
    @pytest.fixture(autouse=True)
    def _close_logs(self):
        self._opened = []
        yield
        for wal in self._opened:
            wal.close()

    def _log_with(self, tmp_path, n):
        wal = WriteAheadLog(tmp_path / "wal.log")
        self._opened.append(wal)
        for version in range(1, n + 1):
            wal.append(version - 1, version, [{"op": "add_vertex", "u": f"V{version}"}])
        return wal

    def test_pending_drains_only_newer_records(self, tmp_path):
        wal = self._log_with(tmp_path, 3)
        assert [r.version for r in wal.cursor(0).pending()] == [1, 2, 3]
        assert [r.version for r in wal.cursor(2).pending()] == [3]
        cursor = wal.cursor(0)
        cursor.pending()
        assert cursor.pending() == []
        assert cursor.after_version == 3

    def test_wait_wakes_on_append(self, tmp_path):
        wal = self._log_with(tmp_path, 1)
        cursor = wal.cursor(0)
        cursor.pending()
        assert cursor.wait(0.05) is False  # nothing new: times out
        wal.append(1, 2, [{"op": "add_vertex", "u": "W"}])
        assert cursor.wait(5.0) is True
        assert [r.version for r in cursor.pending()] == [2]

    def test_truncation_behind_cursor_flags_lost_history(self, tmp_path):
        wal = self._log_with(tmp_path, 3)
        cursor = wal.cursor(0)  # never drained: still needs versions 1..3
        wal.truncate()
        wal.append(3, 4, [{"op": "add_vertex", "u": "X"}])
        assert cursor.pending() == []
        assert cursor.lost_history is True

    def test_caught_up_cursor_survives_truncation(self, tmp_path):
        wal = self._log_with(tmp_path, 3)
        cursor = wal.cursor(0)
        cursor.pending()  # drained to 3 before the checkpoint
        wal.truncate()
        wal.append(3, 4, [{"op": "add_vertex", "u": "X"}])
        assert [r.version for r in cursor.pending()] == [4]
        assert cursor.lost_history is False

    def test_subscription_record_neither_stalls_nor_loses_history(self, tmp_path):
        # A zero-advance registration at the checkpoint version is the
        # first record of the truncated log; the batch after it must flow.
        wal = self._log_with(tmp_path, 3)
        cursor = wal.cursor(0)
        cursor.pending()
        wal.truncate()
        wal.append_subscription(3, {"unregister": "s"})
        wal.append(3, 4, [{"op": "add_vertex", "u": "X"}])
        assert [(r.version, r.subscription) for r in cursor.pending()] == [
            (3, {"unregister": "s"}),
            (4, None),
        ]
        assert cursor.lost_history is False
        assert cursor.after_version == 4

    def test_registration_at_the_cursor_version_is_drained_on_its_own(self, tmp_path):
        wal = self._log_with(tmp_path, 2)
        cursor = wal.cursor(0)
        assert [r.version for r in cursor.pending()] == [1, 2]
        wal.append_subscription(2, {"unregister": "s"})
        assert [(r.version, r.subscription) for r in cursor.pending()] == [
            (2, {"unregister": "s"})
        ]
        assert cursor.pending() == []  # drained once per cursor
        assert cursor.after_version == 2

    def test_registration_is_drained_in_the_chunk_of_the_batch_before_it(self, tmp_path):
        wal = self._log_with(tmp_path, 2)
        wal.append_subscription(2, {"unregister": "s"})
        drained = [(r.version, r.subscription is not None) for r in wal.cursor(1).pending()]
        assert drained == [(2, False), (2, True)]
        # A follower reconnecting at version 2 gets the record at 2 again.
        assert [r.subscription for r in wal.cursor(2).pending()] == [{"unregister": "s"}]

    def test_truncate_keeps_the_registrations_at_the_newest_version(self, tmp_path):
        wal = self._log_with(tmp_path, 2)
        wal.append_subscription(2, {"unregister": "s"})
        wal.truncate()
        assert [(r.version, r.subscription) for r in wal.records()] == [
            (2, {"unregister": "s"})
        ]
        assert wal.first_base == 2
        assert [r.subscription for r in wal.cursor(2).pending()] == [{"unregister": "s"}]
        behind = wal.cursor(1)  # it needed the batch to 2: resync
        assert behind.pending() == [] and behind.lost_history
        wal.append(2, 3, [{"op": "add_vertex", "u": "X"}])
        wal.truncate()
        assert wal.records() == []


# ----------------------------------------------------------------------
# live in-process tier
# ----------------------------------------------------------------------
@contextmanager
def replication_tier(tmp_path, replicas=1, min_version_deadline=5.0):
    """Writer + N replicas + router, all in-process, torn down afterwards."""
    service = CommunityService(
        fig1_profiled_graph(), storage_dir=tmp_path / "writer"
    )
    writer = WriterGateway(service, heartbeat_interval=0.1, port=0)
    writer.start()
    reps = []
    router = None
    try:
        for index in range(replicas):
            rep = ReplicaGateway(
                _url(writer),
                tmp_path / f"replica-{index}",
                reconnect_backoff=0.05,
                port=0,
            )
            rep.start()
            reps.append(rep)
        router = ReplicationRouter(
            _url(writer),
            [_url(r) for r in reps],
            min_version_deadline=min_version_deadline,
            health_interval=0.05,
        )
        router.start()
        yield writer, reps, router
    finally:
        if router is not None:
            router.close()
        for rep in reps:
            rep.close()
        writer.close()


class TestInProcessTier:
    def test_routed_read_matches_direct_answer(self, tmp_path):
        with replication_tier(tmp_path) as (writer, _reps, router):
            expected = envelope(writer.service.query(PROBE))
            with ServerClient(*router.address) as client:
                got = envelope(client.query(PROBE))
            assert got == expected

    def test_routed_read_relays_the_replicas_bytes_unchanged(self, tmp_path):
        """The router re-encodes nothing: compact bytes in, same bytes out."""

        def post_query(gateway):
            conn = http.client.HTTPConnection(*gateway.address, timeout=10)
            try:
                conn.request("POST", "/query", body=json.dumps(PROBE.to_dict()))
                response = conn.getresponse()
                return response.status, response.getheader("X-Repro-Served-By"), response.read()
            finally:
                conn.close()

        with replication_tier(tmp_path) as (_writer, reps, router):
            post_query(reps[0])  # prime: both reads below are the same cache hit
            status, _, direct = post_query(reps[0])
            routed_status, served_by, routed = post_query(router)
            assert status == routed_status == 200
            assert served_by == _url(reps[0])
            assert routed == direct
            assert b"\n" not in routed and json.loads(routed)["cache_hit"] is True

    def test_write_then_read_your_writes(self, tmp_path):
        with replication_tier(tmp_path) as (_writer, reps, router):
            with ServerClient(*router.address) as client:
                receipt = client.update(UPDATES)
                version = receipt["graph_version"]
                assert version >= len(UPDATES)
                # min_version forces the router to wait for a caught-up
                # replica (or fall back to the writer) — the answer must
                # reflect the write it acknowledged.
                response = client.query(PROBE, min_version=version)
                assert response.graph_version >= version
            _wait_until(
                lambda: reps[0].service.pg.version >= version,
                what="replica catch-up",
            )
            counters = router.counters
            assert counters["writes_proxied"] >= 1
            assert counters["reads_proxied"] >= 1
            assert router.last_write_version == version

    def test_min_version_past_deadline_is_503(self, tmp_path):
        with replication_tier(tmp_path, min_version_deadline=0.3) as tier:
            _writer, _reps, router = tier
            with ServerClient(*router.address) as client:
                with pytest.raises(ServerError) as err:
                    client.query(PROBE, min_version=10_000)
            assert err.value.status == 503
            assert err.value.error_type == "min_version_deadline"
            assert err.value.retry_after is not None
            assert router.counters["deadline_exceeded"] >= 1

    def test_write_to_replica_redirects_307(self, tmp_path):
        with replication_tier(tmp_path) as (writer, reps, _router):
            with ServerClient(*reps[0].address) as client:
                with pytest.raises(ServerError) as err:
                    client.update(UPDATES)
            assert err.value.status == 307
            assert err.value.location == f"{_url(writer)}/update"
            # The redirect is advice, not a silent replay: nothing applied.
            assert writer.service.pg.version == 0

    def test_health_surfaces_replication_vitals(self, tmp_path):
        with replication_tier(tmp_path) as (writer, reps, router):
            with ServerClient(*reps[0].address) as replica_client:
                _wait_until(
                    lambda: replica_client.healthz()["replication"]["connected"],
                    what="replica stream connection",
                )
                vitals = replica_client.healthz()["replication"]
            assert vitals["writer_url"] == _url(writer)
            assert vitals["lag_versions"] == 0
            assert vitals["resyncs"] == 0
            with ServerClient(*writer.address) as writer_client:
                _wait_until(
                    lambda: writer_client.healthz()["replication"]["subscribers"] == 1,
                    what="writer subscriber count",
                )
            health = router.health()
            assert health["role"] == "router"
            assert health["writer"]["url"] == _url(writer)
            assert len(health["replicas"]) == 1
            stats = router.stats()
            assert stats["server"]["role"] == "router"
            assert set(stats["server"]["counters"]) == set(router.counters)

    def test_router_rejects_unknown_paths_and_methods(self, tmp_path):
        with replication_tier(tmp_path) as (_writer, _reps, router):
            with ServerClient(*router.address) as client:
                with pytest.raises(ServerError) as missing:
                    client._request("POST", "/nope", {})
                with pytest.raises(ServerError) as wrong_verb:
                    client._request("GET", "/query")
            assert missing.value.status == 404
            assert wrong_verb.value.status == 405

    def test_replica_resyncs_after_writer_checkpoint(self, tmp_path):
        service = CommunityService(
            fig1_profiled_graph(), storage_dir=tmp_path / "writer"
        )
        writer = WriterGateway(service, heartbeat_interval=0.1, port=0)
        writer.start()
        try:
            replica_dir = tmp_path / "replica"
            first = ReplicaGateway(
                _url(writer), replica_dir, reconnect_backoff=0.05, port=0
            )
            first.start()
            service.apply_updates(UPDATES[:1])
            _wait_until(
                lambda: first.service.pg.version == 1, what="initial catch-up"
            )
            first.close()
            # While the replica is down: advance past its position, then
            # checkpoint — the WAL records it still needs are truncated
            # away, so on reboot the stream must answer "resync".
            service.apply_updates(UPDATES[1:])
            service.snapshot()
            service.apply_updates([{"op": "add_vertex", "u": "R9"}])
            second = ReplicaGateway(
                _url(writer), replica_dir, reconnect_backoff=0.05, port=0
            )
            second.start()
            try:
                target = service.pg.version
                _wait_until(
                    lambda: second.service.pg.version == target,
                    what="post-resync catch-up",
                )
                with ServerClient(*second.address) as client:
                    vitals = client.healthz()["replication"]
                assert vitals["resyncs"] == 1
                # Still streaming after the resync: new writes arrive.
                service.apply_updates([{"op": "add_vertex", "u": "R10"}])
                _wait_until(
                    lambda: second.service.pg.version == target + 1,
                    what="post-resync streaming",
                )
            finally:
                second.close()
        finally:
            writer.close()

    def test_resync_survives_a_replica_crash(self, tmp_path):
        """A resync installs the writer's checkpoint as shipped, windows
        included: a replica killed after the resync reboots with the
        writer's window, and a diff replayed from its WAL keeps its id."""
        service = CommunityService(
            fig1_profiled_graph(), storage_dir=tmp_path / "writer"
        )
        writer = WriterGateway(service, heartbeat_interval=0.1, port=0).start()
        replica_dir = tmp_path / "replica"
        try:
            sub_id = writer.subscriptions.register(Subscription.new("B", k=2)).subscription_id
            first = ReplicaGateway(_url(writer), replica_dir, reconnect_backoff=0.05, port=0)
            first.start()
            service.apply_updates(UPDATES[:1])
            _wait_until(lambda: first.service.pg.version == 1, what="catch-up")
            assert _windows(first) == _windows(writer)
            first.close()
            # While the replica is down, Z1 joins B's community and a
            # checkpoint truncates the records the replica would need.
            service.apply_updates(ADD_Z1)
            service.snapshot()
            second = ReplicaGateway(_url(writer), replica_dir, reconnect_backoff=0.05, port=0)
            second.start()
            try:
                _wait_until(
                    lambda: second._health_extra()["replication"]["resyncs"] == 1,
                    what="resync",
                )
                # After the resync, one streamed batch moves the answer again.
                service.apply_updates([{"op": "remove_vertex", "u": "Z1"}])
                _wait_until(
                    lambda: _windows(second) == _windows(writer),
                    what="the writer's window on the replica",
                )
                live = _windows(writer)
                version = second.service.pg.version
            finally:
                second.close(drain=False)  # a crash: no drain checkpoint
        finally:
            writer.close()
        assert [event[0] for event in live[sub_id][0]] == [1, 2, 3]
        reborn = CommunityService(fig1_profiled_graph, storage_dir=replica_dir)
        try:
            assert reborn.pg.version == version
            assert _windows(reborn) == live
        finally:
            reborn.close()

    def test_writer_registration_reaches_the_replica(self, tmp_path, monkeypatch):
        """A writer's registration record reaches the replica's stream,
        between two batches or at the replica's own version, and the
        replica derives the writer's ids, heads and windows from it."""
        seen = []
        apply_record = ReplicaGateway._apply_record

        def recording_apply_record(self, record):
            seen.append((record.version, record.subscription is not None))
            apply_record(self, record)

        monkeypatch.setattr(ReplicaGateway, "_apply_record", recording_apply_record)
        service = CommunityService(
            fig1_profiled_graph(), storage_dir=tmp_path / "writer"
        )
        writer = WriterGateway(service, heartbeat_interval=0.1, port=0).start()
        replica_dir = tmp_path / "replica"
        try:
            first = ReplicaGateway(_url(writer), replica_dir, reconnect_backoff=0.05, port=0)
            first.start()
            service.apply_updates(UPDATES[:1])
            _wait_until(lambda: first.service.pg.version == 1, what="catch-up")
            first.close()
            # While the replica is down, one drain's worth of log builds up:
            # batch, registration, batch.
            service.apply_updates(UPDATES[1:2])
            writer.subscriptions.register(Subscription.new("B", k=2))
            service.apply_updates(UPDATES[2:])
            second = ReplicaGateway(_url(writer), replica_dir, reconnect_backoff=0.05, port=0)
            second.start()
            try:
                _wait_until(
                    lambda: _windows(second) == _windows(writer),
                    what="the registration behind the batch",
                )
                assert (2, True) in seen
                # A registration at the replica's own version, then a batch.
                writer.subscriptions.register(Subscription.new("D", k=2))
                _wait_until(
                    lambda: _windows(second) == _windows(writer),
                    what="the registration at the replica's version",
                )
                service.apply_updates(ADD_Z1)
                _wait_until(
                    lambda: _windows(second) == _windows(writer),
                    what="the diffs of the batch after it",
                )
                assert all(len(window) == 2 for window, _ in _windows(writer).values())
                with ServerClient(*second.address) as client:
                    assert client.healthz()["replication"]["resyncs"] == 0
            finally:
                second.close()
        finally:
            writer.close()

    def test_registration_is_a_write(self, tmp_path):
        """A replica redirects registration to the writer; the router
        proxies it there. A poll the replica cannot answer yet (it sits at
        the registration version without the record) goes to the writer."""
        with replication_tier(tmp_path) as (writer, reps, router):
            with ServerClient(*reps[0].address) as client:
                with pytest.raises(ServerError) as err:
                    client.subscribe("B", k=2)
                assert err.value.status == 307
                assert err.value.location == f"{_url(writer)}/subscribe"
                with pytest.raises(ServerError) as err:
                    client.unsubscribe("nope")
                assert err.value.location == f"{_url(writer)}/unsubscribe"
            assert len(writer.subscriptions) == 0
            # The replica keeps the writer's version but never applies
            # the registration record.
            reps[0]._restore_logged = lambda entry: None
            with ServerClient(*router.address) as client:
                sub, head = client.subscribe("B", k=2)
                assert head.event_id == 1 and head.reset
                _wait_until(lambda: router.replicas[0].version >= head.graph_version,
                            what="the router seeing the replica's version")
                _, response, body = client._request(
                    "POST", "/subscribe/poll", {"id": sub.id, "timeout": 0},
                    extra_headers={"X-Repro-Min-Version": str(head.graph_version)},
                )
                assert [CommunityDiff.from_dict(e) for e in body["events"]] == [head]
                assert response.getheader("X-Repro-Served-By") == _url(writer)
                assert client.unsubscribe(sub.id) == {"unsubscribed": sub.id}
            assert len(writer.subscriptions) == 0 == len(reps[0].subscriptions)
            assert router.counters["writes_proxied"] == 2

    def test_subscribe_stream_through_the_router(self, tmp_path):
        """The client's stream is a loop of polls, which the router proxies:
        a diff arrives through it, and dropping the subscription ends it
        with a 404."""
        with replication_tier(tmp_path) as (_writer, _reps, router):
            with ServerClient(*router.address, timeout=4.0) as client:
                sub, head = client.subscribe("B", k=2)
                receipt = client.update(ADD_Z1)["receipt"]
                stream = client.subscribe_stream(sub.id, last_event_id=head.event_id)
                diff = next(stream)
                assert (diff.event_id, diff.reset) == (2, False)
                assert diff.graph_version == receipt["version"]
                assert "Z1" in diff.joined
                client.unsubscribe(sub.id)
                with pytest.raises(ServerError) as err:
                    next(stream)
            assert err.value.status == 404
            assert err.value.error_type == "subscription_not_found"

    def test_replica_close_leaves_no_traceback_on_the_writer(self, tmp_path, capfd):
        """A replica hanging up its stream ends that response quietly."""
        service = CommunityService(fig1_profiled_graph(), storage_dir=tmp_path / "writer")
        writer = WriterGateway(service, heartbeat_interval=0.05, port=0).start()
        try:
            replica = ReplicaGateway(_url(writer), tmp_path / "replica", port=0).start()
            _wait_until(
                lambda: writer._health_extra()["replication"]["subscribers"] == 1,
                what="the stream",
            )
            replica.close()
            _wait_until(
                lambda: writer._health_extra()["replication"]["subscribers"] == 0,
                what="the stream's end",
            )
        finally:
            writer.close()
        assert "Traceback" not in capfd.readouterr().err

    def test_writer_requires_durable_service(self, tmp_path):
        with CommunityService(fig1_profiled_graph()) as memory_only:
            with pytest.raises(InvalidInputError):
                WriterGateway(memory_only)

    def test_router_requires_replicas(self):
        with pytest.raises(InvalidInputError):
            ReplicationRouter("http://127.0.0.1:9", [])


def _random_batch(rng, pg, step):
    """1–4 edits that are valid against ``pg`` (fig1's taxonomy labels)."""
    vertices = sorted(pg.graph.vertices(), key=repr)
    edges = sorted(pg.graph.edges(), key=repr)
    ops = []
    for i in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.4:
            u, v = rng.sample(vertices, 2)
            ops.append({"op": "add_edge", "u": u, "v": v})
        elif kind < 0.7 and edges:
            u, v = rng.choice(edges)
            ops.append({"op": "remove_edge", "u": u, "v": v})
        elif kind < 0.85:
            labels = rng.sample(["CM", "ML", "AI", "IS", "DMS", "HW"], 2)
            ops.append({"op": "set_profile", "u": rng.choice(vertices), "labels": labels})
        else:
            new = f"N{step}_{i}"
            ops.append({"op": "add_vertex", "u": new, "labels": ["ML", "AI"]})
            ops.extend({"op": "add_edge", "u": new, "v": v} for v in rng.sample(vertices, 2))
    return ops


class TestClusterWalk:
    def test_every_replica_derives_the_writers_windows(self, tmp_path):
        """40 seeded steps of batches and router-side (un)registrations on
        a writer, two replicas and a router. After every step each live
        replica holds the writer's windows. A poll reader resumes through
        the router across a replica crash, and a resync forced by a
        checkpoint while that replica is down keeps the windows equal."""
        rng = random.Random(43)
        with replication_tier(tmp_path, replicas=2) as (writer, reps, router):
            client = ServerClient(*router.address)
            reader, head = client.subscribe("D", k=2)
            seen = [head]
            floor = head.graph_version
            live = [reader.id]
            down = None
            for step in range(40):
                if step == 12:
                    down = reps[0]
                    port = down.address[1]
                    down.close(drain=False)  # a crash: no drain checkpoint
                if step == 24:
                    # Checkpoint while the replica is down and behind.
                    assert down.service.pg.version < writer.service.pg.version
                    writer.service.snapshot()
                    reps[0] = ReplicaGateway(
                        _url(writer), tmp_path / "replica-0",
                        reconnect_backoff=0.05, port=port,
                    ).start()
                    down = None
                action = rng.random()
                if action < 0.15:
                    sub, registered = client.subscribe(rng.choice("ABCDEFGH"), k=rng.choice((1, 2)))
                    live.append(sub.id)
                    floor = max(floor, registered.graph_version)
                elif action < 0.25 and len(live) > 1:
                    client.unsubscribe(live.pop(rng.randrange(1, len(live))))
                else:
                    receipt = client.update(_random_batch(rng, writer.service.pg, step))
                    floor = max(floor, receipt["graph_version"])
                expected = _windows(writer)
                for rep in reps:
                    if rep is not down:
                        _wait_until(
                            lambda rep=rep: _windows(rep) == expected,
                            what=f"step {step}: {_url(rep)} holds the writer's windows",
                        )
                _, _, body = client._request(
                    "POST", "/subscribe/poll",
                    {"id": reader.id, "last_event_id": seen[-1].event_id, "timeout": 0},
                    extra_headers={"X-Repro-Min-Version": str(floor)},
                )
                seen.extend(CommunityDiff.from_dict(e) for e in body["events"])
            client.close()
            assert reps[0]._health_extra()["replication"]["resyncs"] == 1
            # The reader saw every event exactly once, in order.
            assert [d.event_id for d in seen] == list(range(1, len(seen) + 1))
            assert [
                (d.event_id, d.graph_version, d.reset, frozenset(d.joined), frozenset(d.left))
                for d in seen
            ] == _windows(writer)[reader.id][0]
            assert len(seen) > 3


# ----------------------------------------------------------------------
# router fails closed on hostile clients and garbage backends
# ----------------------------------------------------------------------
class _GarbageVersionBackend(BaseHTTPRequestHandler):
    """Healthy by ``/healthz``, but answers with a non-integer version."""

    protocol_version = "HTTP/1.1"

    def _answer(self, body: bytes, version=None):
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if version is not None:
            self.send_header("X-Repro-Graph-Version", version)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        self._answer(b'{"status": "ok", "graph_version": 0, "queue_depth": 0}')

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self._answer(b"{}", version="banana")

    def log_message(self, *args):
        pass


class TestRouterFailsClosed:
    def test_non_integer_backend_version_marks_backend_failed(self):
        backend = ThreadingHTTPServer(("127.0.0.1", 0), _GarbageVersionBackend)
        thread = threading.Thread(target=backend.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{backend.server_address[1]}"
        router = ReplicationRouter(url, [url], health_interval=30.0)
        router.start()
        try:
            with ServerClient(*router.address) as client:
                with pytest.raises(ServerError) as read:
                    client._request("POST", "/query", {"vertex": "A", "k": 2})
                with pytest.raises(ServerError) as write:
                    client._request("POST", "/update", {"updates": UPDATES})
                # The connection task survived both: same socket still served.
                health = client.healthz()
            assert read.value.status == 503
            assert write.value.status == 503
            assert health["status"] == "ok"
            assert router.replicas[0].errors >= 1
            assert router.counters["failovers"] >= 1
            assert router.counters["writer_unavailable"] == 1
        finally:
            router.close()
            backend.shutdown()
            backend.server_close()
            thread.join(timeout=10)
            assert not thread.is_alive()


# ----------------------------------------------------------------------
# one HTTP layer: every role answers protocol errors the same way
# ----------------------------------------------------------------------
def _raw_exchange(address, request: bytes):
    """Send raw bytes; ``(status, headers, JSON payload, peer hung up)``.

    No request here carries a body, so an answer proves the server never
    waited for one.
    """
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(request)
        response = http.client.HTTPResponse(sock)
        response.begin()
        payload = json.loads(response.read())
        hung_up = response.getheader("Connection") == "close" and sock.recv(1) == b""
        return response.status, response.headers, payload, hung_up


#: name -> (request, status, error.type, headers the answer must carry)
ENVELOPE_CASES = {
    "unknown-path": (b"POST /nope HTTP/1.1\r\n\r\n", 404, "not_found", {}),
    # Standing queries are followed by long-poll only.
    "no-sse-route": (
        b"POST /subscribe/stream HTTP/1.1\r\n\r\n", 404, "not_found", {}
    ),
    "wrong-verb": (
        b"GET /query HTTP/1.1\r\n\r\n", 405, "method_not_allowed", {"Allow": "POST"}
    ),
    "oversized": (
        b"POST /query HTTP/1.1\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % (DEFAULT_MAX_BODY_BYTES + 1),
        413,
        "payload_too_large",
        {"Connection": "close"},
    ),
    "length-not-a-number": (
        b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        400,
        "invalid_input",
        {"Connection": "close"},
    ),
    "length-negative": (
        b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        400,
        "invalid_input",
        {"Connection": "close"},
    ),
}
ROLES = ("standalone", "writer", "replica", "router")


class TestEveryRoleOneEnvelope:
    @pytest.fixture(scope="class")
    def servers(self, tmp_path_factory):
        tier = replication_tier(tmp_path_factory.mktemp("roles"))
        with tier as (writer, reps, router):
            with CommunityGateway(fig1_profiled_graph(), port=0) as standalone:
                yield {
                    "standalone": standalone,
                    "writer": writer,
                    "replica": reps[0],
                    "router": router,
                }

    @pytest.mark.parametrize("case", sorted(ENVELOPE_CASES))
    @pytest.mark.parametrize("role", ROLES)
    def test_protocol_error(self, servers, role, case):
        request, status, err_type, expected_headers = ENVELOPE_CASES[case]
        got_status, headers, payload, hung_up = _raw_exchange(
            servers[role].address, request
        )
        assert got_status == status
        assert payload["error"]["type"] == err_type
        assert headers["Content-Type"] == "application/json"
        for name, value in expected_headers.items():
            assert headers[name] == value
        # The refusals that leave a body unread must also hang up.
        assert hung_up == ("Connection" in expected_headers)

    @pytest.mark.parametrize("role", ROLES)
    def test_stats_count_requests_per_endpoint(self, servers, role):
        with ServerClient(*servers[role].address) as client:
            client.healthz()
            rows = client.stats()["server"]["requests"]
        healthz = [r for r in rows if r["endpoint"] == "/healthz"]
        assert healthz and healthz[0]["method"] == "GET"
        assert healthz[0]["status"] == 200 and healthz[0]["count"] >= 1


# ----------------------------------------------------------------------
# router drain: the gateway's close() contract, inherited
# ----------------------------------------------------------------------
class _SlowBackend(_GarbageVersionBackend):
    """A backend whose reads take a while, so a drain can catch one in flight."""

    entered = threading.Event()
    release = threading.Event()

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.entered.set()
        self.release.wait(timeout=10)
        self._answer(b'{"slow": true}', version="0")


@contextmanager
def slow_backend():
    """A running :class:`_SlowBackend`; yields its base URL."""
    _SlowBackend.entered.clear()
    _SlowBackend.release.clear()
    backend = ThreadingHTTPServer(("127.0.0.1", 0), _SlowBackend)
    backend.daemon_threads = True
    serve = threading.Thread(target=backend.serve_forever, daemon=True)
    serve.start()
    try:
        yield f"http://127.0.0.1:{backend.server_address[1]}"
    finally:
        _SlowBackend.release.set()
        backend.shutdown()
        backend.server_close()
        serve.join(timeout=10)
        assert not serve.is_alive()


class TestRouterDrain:
    def test_concurrent_reads_lose_no_counter_update(self):
        threads, reads_each = 8, 25
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with slow_backend() as url:
                _SlowBackend.release.set()  # answer at once
                with ReplicationRouter(url, [url], health_interval=0.01) as router:

                    def read():
                        with ServerClient(*router.address) as client:
                            for _ in range(reads_each):
                                client._request("POST", "/query", {"vertex": "A"})

                    workers = [threading.Thread(target=read) for _ in range(threads)]
                    for worker in workers:
                        worker.start()
                    for worker in workers:
                        worker.join(timeout=60)
                    assert not any(worker.is_alive() for worker in workers)
                    stats = router.stats()
        finally:
            sys.setswitchinterval(interval)
        total = threads * reads_each
        assert stats["server"]["counters"]["reads_proxied"] == total
        assert stats["replicas"][0]["inflight"] == 0
        assert stats["replicas"][0]["errors"] == 0
        routed = [r for r in stats["server"]["requests"] if r["endpoint"] == "/query"]
        assert [(r["status"], r["count"]) for r in routed] == [(200, total)]

    def test_close_answers_in_flight_read_and_leaks_no_socket(self):
        gc.collect()  # earlier tests' garbage must not be blamed on this one
        with warnings.catch_warnings(record=True) as caught, slow_backend() as url:
            warnings.simplefilter("always", ResourceWarning)
            router = ReplicationRouter(url, [url], health_interval=0.05)
            router.start()
            answers = []

            def read():
                with ServerClient(*router.address) as client:
                    answers.append(client._request("POST", "/query", {"vertex": "A"})[2])

            reader = threading.Thread(target=read)
            idle = socket.create_connection(router.address, timeout=10)
            try:
                reader.start()
                assert _SlowBackend.entered.wait(timeout=10)
                closer = threading.Thread(target=router.close)
                closer.start()
                # close() is draining: it has not returned, and the read
                # it is waiting for has not been answered yet.
                closer.join(timeout=0.3)
                assert closer.is_alive() and not answers
                _SlowBackend.release.set()
                closer.join(timeout=10)
                reader.join(timeout=10)
                assert not closer.is_alive() and not reader.is_alive()
                assert answers == [{"slow": True}]
                # The idle keep-alive client did not stall the drain; it
                # was hung up on.
                assert idle.recv(1) == b""
            finally:
                idle.close()
                _SlowBackend.release.set()
                router.close()
            del router
            gc.collect()
        leaked = [str(w.message) for w in caught if "socket" in str(w.message)]
        assert leaked == []
