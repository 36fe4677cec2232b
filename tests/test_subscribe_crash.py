"""Crash/resume gauntlet for standing subscriptions.

SIGKILL a durable ``repro serve --data-dir`` subprocess mid-stream and
assert the reboot serves the subscription tier as if the crash never
happened:

* a subscriber that saw events up to cursor ``C`` before the crash
  reconnects with ``last_event_id=C`` and receives **exactly** the diffs
  it missed — contiguous event ids, no gaps, no duplicates — because the
  registration and every update were fsync'd to the WAL before they were
  acknowledged, and the reboot re-derives each diff by replaying the
  WAL's batches with the subscription manager attached;
* composing snapshot + received diffs equals a shadow
  :class:`~repro.api.CommunityService` replay at every acknowledged
  version;
* a *clean* shutdown (SIGINT) checkpoints each subscription's head and
  retained window into the snapshot and folds the WAL, so a cursor from
  before the restart still resumes with exactly the diffs it missed.
"""

import pytest

from repro.api import CommunityService, Subscription
from repro.datasets import fig1_profiled_graph
from repro.server import ServerClient
from repro.storage import load_checkpoint

from tests.test_durability import _kill_dash_nine, _shutdown_clean, _start_server

#: Watched query: B@k=2 starts at {B, C, D} (the paper's Fig. 2 PC).
WATCH = ("B", 2)

#: Batch the subscriber *sees* before the crash (Z1 joins → diff 2).
PRE_BATCH = [
    {"op": "add_vertex", "u": "Z1", "labels": ["ML", "AI"]},
    {"op": "add_edge", "u": "Z1", "v": "B"},
    {"op": "add_edge", "u": "Z1", "v": "C"},
    {"op": "add_edge", "u": "Z1", "v": "D"},
]

#: Batches applied while nobody is streaming — each changes B's watched
#: set, so each produces exactly one diff the subscriber must not lose.
MISSED_BATCHES = [
    [{"op": "remove_vertex", "u": "Z1"}],
    [
        {"op": "add_vertex", "u": "Z2", "labels": ["ML", "AI"]},
        {"op": "add_edge", "u": "Z2", "v": "B"},
        {"op": "add_edge", "u": "Z2", "v": "C"},
        {"op": "add_edge", "u": "Z2", "v": "D"},
    ],
    [{"op": "remove_vertex", "u": "Z2"}],
]

#: Applied after the reboot, so the resumed stream also carries a
#: post-crash live diff, not just the replayed backlog.
SENTINEL_BATCH = [
    {"op": "add_vertex", "u": "Z3", "labels": ["ML", "AI"]},
    {"op": "add_edge", "u": "Z3", "v": "B"},
    {"op": "add_edge", "u": "Z3", "v": "C"},
    {"op": "add_edge", "u": "Z3", "v": "D"},
]


def _watched(service: CommunityService) -> frozenset:
    vertex, k = WATCH
    result = service.explorer.explore(vertex, k=k)
    members: set = set()
    for community in result.communities:
        members |= community.vertices
    return frozenset(members)


def _shadow_by_version(batch_groups):
    """``{version: watched set}`` replaying the same batch grouping."""
    expected = {}
    with CommunityService(fig1_profiled_graph()) as shadow:
        expected[shadow.pg.version] = _watched(shadow)
        for batch in batch_groups:
            shadow.apply_updates(batch)
            expected[shadow.pg.version] = _watched(shadow)
    return expected


@pytest.mark.subscriptions
@pytest.mark.durability
def test_sigkill_then_resume_receives_exactly_missed_diffs(tmp_path):
    data_dir = tmp_path / "data"
    proc, port = _start_server(data_dir)
    try:
        client = ServerClient("127.0.0.1", port)
        sub, snapshot = client.subscribe(Subscription.new(*WATCH))
        assert snapshot.reset and snapshot.event_id == 1

        client.update(PRE_BATCH)
        seen = client.poll(sub.id, last_event_id=snapshot.event_id, timeout=10)
        assert [d.event_id for d in seen] == [2], "pre-crash diff not delivered"
        cursor = seen[-1].event_id

        for batch in MISSED_BATCHES:
            client.update(batch)  # acked ⇒ in the WAL, but nobody streams
        client.close()
    finally:
        _kill_dash_nine(proc)

    proc, port = _start_server(data_dir)
    try:
        client = ServerClient("127.0.0.1", port)
        receipt = client.update(SENTINEL_BATCH)["receipt"]
        sentinel_version = receipt["version"]

        received = []
        for diff in client.subscribe_stream(sub.id, last_event_id=cursor):
            received.append(diff)
            if diff.graph_version >= sentinel_version:
                break
        client.close()

        # Exactly the missed diffs plus the post-reboot sentinel diff:
        # contiguous ids from the cursor, nothing replayed twice, nothing
        # dropped, no reset (the replay re-derived the full tail).
        ids = [d.event_id for d in received]
        assert ids == list(range(cursor + 1, cursor + 1 + len(ids))), (
            f"resume returned non-contiguous event ids {ids} after cursor {cursor}"
        )
        assert len(ids) == len(MISSED_BATCHES) + 1, (
            f"expected one diff per missed membership change plus the "
            f"sentinel, got {ids}"
        )
        assert not any(d.reset for d in received), (
            "a retained tail must replay verbatim, not re-baseline"
        )

        # Composing snapshot + pre-crash diff + resumed tail tracks the
        # shadow replay at every version a diff is tagged with.
        expected = _shadow_by_version(
            [PRE_BATCH, *MISSED_BATCHES, SENTINEL_BATCH]
        )
        composed = snapshot.apply_to(frozenset())
        for diff in [*seen, *received]:
            composed = diff.apply_to(composed)
            assert composed == expected[diff.graph_version], (
                f"composed membership diverges from the shadow at "
                f"version {diff.graph_version}"
            )
        assert composed == expected[max(expected)]
    finally:
        _kill_dash_nine(proc)


@pytest.mark.subscriptions
@pytest.mark.durability
def test_clean_shutdown_compacts_and_keeps_the_window(tmp_path):
    data_dir = tmp_path / "data"
    proc, port = _start_server(data_dir)
    try:
        client = ServerClient("127.0.0.1", port)
        sub, snapshot = client.subscribe(Subscription.new(*WATCH))
        client.update(PRE_BATCH)
        for batch in MISSED_BATCHES:
            client.update(batch)
        client.close()
    finally:
        _shutdown_clean(proc)

    # The drain checkpointed: the WAL is empty and the snapshot's
    # subscription section is one entry for the one subscription.
    # The server keeps no other file.
    assert sorted(p.name for p in data_dir.iterdir()) == ["snapshot.bin", "wal.log"]
    assert (data_dir / "wal.log").stat().st_size == 0
    _, section = load_checkpoint(data_dir / "snapshot.bin")
    assert [entry["subscription"]["id"] for entry in section] == [sub.id], section

    proc, port = _start_server(data_dir)
    try:
        client = ServerClient("127.0.0.1", port)
        # The checkpoint kept the retained window: cursor 1 resumes with
        # exactly the diffs the dead server assigned, no re-baseline.
        events = client.poll(sub.id, last_event_id=1, timeout=10)
        assert [d.event_id for d in events] == list(range(2, 3 + len(MISSED_BATCHES)))
        assert not any(d.reset for d in events)
        expected = _shadow_by_version([PRE_BATCH, *MISSED_BATCHES])
        composed = snapshot.apply_to(frozenset())
        for diff in events:
            composed = diff.apply_to(composed)
            assert composed == expected[diff.graph_version]
        assert composed == expected[max(expected)]
        # A current cursor long-polls quietly instead of re-baselining.
        assert client.poll(sub.id, last_event_id=events[-1].event_id, timeout=0) == []
        client.close()
    finally:
        _kill_dash_nine(proc)
