"""Standing subscriptions on a durable service: one WAL, one snapshot.

A ``storage_dir=`` service keeps its subscriptions in the same two files
as its graph: registrations are zero-advance WAL records, a checkpoint
writes each subscription's head and retained window into the snapshot,
and boot re-derives every diff by replaying the WAL's batches with the
manager attached.
This module checks the properties that design promises:

* one fsync per acknowledged update, however many diffs it causes;
* replay equals live: after a crash (no checkpoint), every retained
  window — event ids, versions, joined, left — comes back as it was;
* the crash between a checkpoint's snapshot rename and its WAL truncate
  restores every subscription exactly once, with its window, and a
  reused id's stale records cannot clobber its checkpointed head;
* offline compaction (``repro snapshot --data-dir``) carries them;
* a malformed subscription section fails closed with a
  :class:`~repro.storage.SnapshotError`, never anything else.
"""

from __future__ import annotations

import hashlib
import os
import random
import struct

import pytest

from repro.api import CommunityService, Subscription
from repro.cli import main as cli_main
from repro.datasets import fig1_profiled_graph
from repro.errors import ReproError
from repro.server import CommunityGateway
from repro.storage import (
    FORMAT_VERSION,
    MAGIC,
    SnapshotError,
    WriteAheadLog,
    encode_payload,
    load_checkpoint,
    snapshot_bytes,
)
from repro.storage.snapshot import FLAG_HAS_INDEX, FLAG_HAS_SUBSCRIPTIONS

#: Z1 joins the {B, C, D} community: one batch, three moved answers.
ADD_Z1 = [
    {"op": "add_vertex", "u": "Z1", "labels": ["ML", "AI"]},
    {"op": "add_edge", "u": "Z1", "v": "B"},
    {"op": "add_edge", "u": "Z1", "v": "C"},
    {"op": "add_edge", "u": "Z1", "v": "D"},
]

LABELS = ["CM", "ML", "AI", "IS", "DMS", "HW"]


def _durable(path) -> CommunityService:
    return CommunityService(fig1_profiled_graph(), default_k=2, storage_dir=path)


def _windows(service: CommunityService) -> dict:
    manager = service.subscriptions
    return {sub.id: manager.events_since(sub.id) for sub in manager.subscriptions()}


def test_one_fsync_per_acknowledged_update(tmp_path, monkeypatch):
    gateway = CommunityGateway(_durable(tmp_path), coalesce=False)
    try:
        subs = [Subscription.new(v, k=2) for v in ("B", "C", "D")]
        for sub in subs:
            gateway.subscriptions.register(sub)
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        gateway.apply_updates(ADD_Z1)
        monkeypatch.undo()
        diffs = [
            d for sub in subs
            for d in gateway.subscriptions.events_since(sub.id, last_event_id=1)
        ]
        assert len(diffs) == 3 and all("Z1" in d.joined for d in diffs)
        assert len(calls) == 1, f"{len(calls)} fsyncs for one acknowledged update"
    finally:
        gateway.close(drain=False)


def _random_batch(rng: random.Random, pg, fresh: int) -> list:
    """A small edit batch that is valid on ``pg`` as it stands."""
    vertices = sorted(pg.vertices(), key=repr)
    batch = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        u, v = rng.sample(vertices, 2)
        if roll < 0.3:
            batch.append({"op": "add_edge", "u": u, "v": v})
        elif roll < 0.5:
            batch.append({"op": "remove_edge", "u": u, "v": v})
        elif roll < 0.75:
            name = f"N{fresh}-{len(batch)}"
            labels = rng.sample(LABELS, rng.randint(1, 3))
            batch.append({"op": "add_vertex", "u": name, "labels": labels})
            for w in rng.sample(vertices, rng.randint(1, 3)):
                batch.append({"op": "add_edge", "u": name, "v": w})
        else:
            batch.append({"op": "set_profile", "u": u,
                          "labels": rng.sample(LABELS, rng.randint(1, 3))})
    return batch


@pytest.mark.parametrize("seed", range(8))
def test_replay_equals_live(tmp_path, seed):
    rng = random.Random(seed)
    service = _durable(tmp_path)
    manager = service.subscriptions
    live_ids = []
    for step in range(40):
        roll = rng.random()
        if roll < 0.55:
            try:
                service.apply_updates(_random_batch(rng, service.pg, step))
            except ReproError:
                pass  # refused before it was logged
        elif roll < 0.85 or not live_ids:
            vertex = rng.choice(sorted(service.pg.vertices(), key=repr))
            sub = Subscription.new(vertex, k=rng.choice((1, 2, 3)))
            manager.register(sub)
            live_ids.append(sub.id)
        else:
            assert manager.unregister(live_ids.pop(rng.randrange(len(live_ids))))
    live = _windows(service)
    version = service.pg.version
    assert sum(len(w) for w in live.values()) > len(live)  # diffs, not only heads
    service.close()  # crash: no checkpoint

    reborn = _durable(tmp_path)
    assert reborn.boot_report.source == "cold"
    assert reborn.pg.version == version
    assert _windows(reborn) == live
    reborn.close()


def test_checkpoint_crash_window_restores_each_subscription_once(tmp_path, monkeypatch):
    service = _durable(tmp_path)
    manager = service.subscriptions
    before = Subscription.new("B", k=2)
    manager.register(before)
    service.apply_updates(ADD_Z1)

    def crash(self):
        raise OSError("power lost between the snapshot rename and the truncate")

    monkeypatch.setattr(WriteAheadLog, "truncate", crash)
    with pytest.raises(OSError):
        service.snapshot()
    monkeypatch.undo()
    # Same version, the other side of the checkpoint: only in the WAL,
    # which still holds the registration of `before` as well.
    after = Subscription.new("D", k=2)
    manager.register(after)
    service.apply_updates([{"op": "remove_vertex", "u": "Z1"}])
    live = _windows(service)
    service.close()

    reborn = _durable(tmp_path)
    assert reborn.boot_report.source == "snapshot"
    ids = [sub.id for sub in reborn.subscriptions.subscriptions()]
    assert sorted(ids) == sorted([before.id, after.id])
    # `before` resumes from its checkpointed window (up to event 2, the Z1
    # join); the batch after the checkpoint replays onto it.
    assert [d.event_id for d in live[before.id]] == [1, 2, 3]
    assert _windows(reborn) == live
    reborn.close()


def test_checkpoint_crash_window_ignores_a_reused_ids_stale_records(tmp_path, monkeypatch):
    """A client may reuse an id after unregistering it. The stale WAL a
    crashed truncate leaves behind (register, unregister, re-register,
    all below the snapshot's version) must not clobber the section."""
    service = _durable(tmp_path)
    manager = service.subscriptions
    first = Subscription.new("B", k=2)
    manager.register(first)
    service.apply_updates(ADD_Z1)
    assert manager.unregister(first.id)
    reused = Subscription.from_dict(dict(first.to_dict(), vertex="D"))
    manager.register(reused)
    service.apply_updates([{"op": "remove_vertex", "u": "Z1"}])
    (head,) = manager.events_since(reused.id, last_event_id=1)
    assert head.event_id == 2 and head.left == ("Z1",)
    members = manager.members(reused.id)
    live = manager.events_since(reused.id)

    def crash(self):
        raise OSError("power lost between the snapshot rename and the truncate")

    monkeypatch.setattr(WriteAheadLog, "truncate", crash)
    with pytest.raises(OSError):
        service.snapshot()
    monkeypatch.undo()
    version = service.pg.version
    service.close()

    reborn = _durable(tmp_path)
    assert reborn.boot_report.source == "snapshot"
    assert reborn.subscriptions.get(reused.id) == reused
    assert _windows(reborn) == {reused.id: live}
    (head,) = reborn.subscriptions.events_since(reused.id, last_event_id=99)
    assert head.reset and head.event_id == 2 and head.graph_version == version
    assert reborn.subscriptions.members(reused.id) == members
    reborn.close()


def test_offline_compaction_carries_subscriptions(tmp_path, capsys):
    service = _durable(tmp_path)
    sub = Subscription.new("B", k=2)
    service.subscriptions.register(sub)
    service.apply_updates(ADD_Z1)
    live = _windows(service)[sub.id]
    service.close()  # crash: the diff exists only as a replayable batch
    assert cli_main(["snapshot", "--dataset", "fig1", "--data-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    _, section = load_checkpoint(tmp_path / "snapshot.bin")
    assert [entry["subscription"]["id"] for entry in section] == [sub.id]
    assert section[0]["head"]["event_id"] == live[-1].event_id == 2
    assert sorted(section[0]["head"]["joined"]) == ["B", "C", "D", "Z1"]
    reborn = _durable(tmp_path)
    assert reborn.storage.wal.num_records == 0
    assert reborn.subscriptions.members(sub.id) == live[-1].apply_to(live[0].apply_to(frozenset()))
    reborn.close()


def test_corrupted_subscription_section_fails_closed(tmp_path):
    seed_dir = tmp_path / "seed"
    service = _durable(seed_dir)
    for vertex in ("B", "E"):
        service.subscriptions.register(Subscription.new(vertex, k=2))
    service.apply_updates(ADD_Z1)
    entries = service.subscriptions.heads()
    pg = service.pg
    pg.index()
    prefix = encode_payload(pg, pg.index())
    section = encode_payload(pg, pg.index(), entries)[len(prefix):]
    service.close()
    flags = FLAG_HAS_INDEX | FLAG_HAS_SUBSCRIPTIONS
    assert snapshot_bytes(pg, subscriptions=entries)[52:] == prefix + section

    junk = [None, 0, -1, "x", "B", [], [1], {}, {"a": 1}, True, 2.5]
    rng = random.Random(5)
    booted = refused = 0
    for trial in range(300):
        if trial % 2:
            data = bytearray(section)
            for _ in range(rng.choice((1, 2, 3))):
                data[rng.randrange(len(data))] = rng.randrange(256)
            if rng.random() < 0.2:
                del data[rng.randrange(len(data)):]
            payload = prefix + bytes(data)
        else:  # well-framed JSON whose entries are junk
            mangled = [dict(entry) for entry in entries]
            victim = rng.choice(mangled)
            key = rng.choice(["subscription", "head", "unregister", "extra"])
            victim[key] = rng.choice(junk)
            if rng.random() < 0.5 and isinstance(victim.get("head"), dict):
                victim["head"] = dict(victim["head"], **{
                    rng.choice(["event_id", "joined", "reset", "subscription_id"]):
                        rng.choice(junk)})
            payload = encode_payload(pg, pg.index(), mangled)
        header = struct.pack("<8sHH32sQ", MAGIC, FORMAT_VERSION, flags,
                             hashlib.sha256(payload).digest(), len(payload))
        store = tmp_path / f"trial-{trial}"
        store.mkdir()
        (store / "snapshot.bin").write_bytes(header + payload)
        try:
            _durable(store).close()
        except SnapshotError:
            refused += 1
            continue
        booted += 1
    assert refused and booted
