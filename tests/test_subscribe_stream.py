"""Differential stress: an edit stream racing concurrent subscribers.

One real :class:`~repro.server.gateway.CommunityGateway` (sockets, not
``handle_request``), three subscribers following their standing queries
with :meth:`ServerClient.subscribe_stream
<repro.server.client.ServerClient.subscribe_stream>` (a long-poll loop)
from separate threads — one per fig1 label partition (B's CM side, A's IS side, the
F/G/H triangle) — while the main thread pushes edit batches through
``POST /update``. A shadow :class:`~repro.api.CommunityService` applies
the identical batches in-process, recording the full-recompute watched
set at every acknowledged ``graph_version``; each diff a subscriber
receives must compose to exactly the shadow's answer at the version the
diff is tagged with. The final batch touches all three partitions so
every subscriber provably has a last event to wait for, and the
dirty-label matcher must have *skipped* at least one re-evaluation across
the partition-local batches (the selectivity the benchmark gates).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import CommunityService, Subscription
from repro.datasets import fig1_profiled_graph
from repro.server import ServerClient
from repro.server.client import ServerError
from repro.server.gateway import CommunityGateway

#: (query vertex, k) per subscriber — one per fig1 partition.
WATCHES = [("B", 2), ("A", 2), ("F", 2)]

#: Edit batches; each ``client.update`` call is one batch (one receipt,
#: one matcher decision round). Comments say which partitions they touch.
BATCHES = [
    [  # CM side: Z joins B's community
        {"op": "add_vertex", "u": "Z", "labels": ["ML", "AI"]},
        {"op": "add_edge", "u": "Z", "v": "B"},
        {"op": "add_edge", "u": "Z", "v": "C"},
        {"op": "add_edge", "u": "Z", "v": "D"},
    ],
    [{"op": "remove_vertex", "u": "Z"}],  # CM side: Z leaves
    [  # IS side: W joins A's community
        {"op": "add_vertex", "u": "W", "labels": ["DMS"]},
        {"op": "add_edge", "u": "W", "v": "A"},
        {"op": "add_edge", "u": "W", "v": "D"},
        {"op": "add_edge", "u": "W", "v": "E"},
    ],
    [{"op": "remove_vertex", "u": "W"}],  # IS side: W leaves
    [{"op": "remove_edge", "u": "F", "v": "G"}],  # triangle collapses
    [{"op": "add_edge", "u": "F", "v": "G"}],  # triangle restored
    [  # sentinel: every partition gains a member → every sub gets a diff
        {"op": "add_vertex", "u": "ZB", "labels": ["ML", "AI"]},
        {"op": "add_edge", "u": "ZB", "v": "B"},
        {"op": "add_edge", "u": "ZB", "v": "C"},
        {"op": "add_edge", "u": "ZB", "v": "D"},
        {"op": "add_vertex", "u": "ZA", "labels": ["DMS"]},
        {"op": "add_edge", "u": "ZA", "v": "A"},
        {"op": "add_edge", "u": "ZA", "v": "D"},
        {"op": "add_edge", "u": "ZA", "v": "E"},
        {"op": "add_vertex", "u": "ZF", "labels": ["HW"]},
        {"op": "add_edge", "u": "ZF", "v": "F"},
        {"op": "add_edge", "u": "ZF", "v": "G"},
        {"op": "add_edge", "u": "ZF", "v": "H"},
    ],
]


def _watched(service: CommunityService, vertex, k) -> frozenset:
    result = service.explorer.explore(vertex, k=k)
    members: set = set()
    for community in result.communities:
        members |= community.vertices
    return frozenset(members)


class _Subscriber(threading.Thread):
    """One consumer: subscribes, follows by long-poll, records every diff."""

    def __init__(self, host: str, port: int, vertex, k: int) -> None:
        super().__init__(name=f"subscriber-{vertex}", daemon=True)
        self.client = ServerClient(host, port, timeout=30.0, retries=1)
        self.subscription, self.snapshot = self.client.subscribe(
            Subscription.new(vertex, k=k)
        )
        self.diffs: list = []
        self.error: Exception | None = None

    def run(self) -> None:
        try:
            for diff in self.client.subscribe_stream(
                self.subscription.id, last_event_id=self.snapshot.event_id
            ):
                self.diffs.append(diff)
        except ServerError as exc:
            # The drain at the end of the test makes every poll answer at
            # once; the client surfaces that as a typed 503 once its retry
            # budget is spent. Anything else is a real failure.
            if exc.error_type != "stream_ended":
                self.error = exc
        except Exception as exc:  # noqa: BLE001 - report to the main thread
            self.error = exc
        finally:
            self.client.close()


@pytest.mark.subscriptions
def test_concurrent_stream_subscribers_match_shadow_replay():
    gateway = CommunityGateway(
        CommunityService(fig1_profiled_graph(), default_k=2),
        port=0,
        coalesce=False,
    ).start()
    subscribers: list[_Subscriber] = []
    try:
        host, port = gateway.address
        subscribers = [_Subscriber(host, port, vertex, k) for vertex, k in WATCHES]
        for sub in subscribers:
            sub.start()

        writer = ServerClient(host, port, timeout=30.0, retries=1)
        shadow = CommunityService(fig1_profiled_graph(), default_k=2)
        expected = {}  # graph_version -> {subscription id: watched set}
        versions = []
        for batch in BATCHES:
            receipt = writer.update(batch)["receipt"]
            shadow.apply_updates(batch)
            assert receipt["version"] == shadow.pg.version, (
                "server and shadow disagree on the version one batch produced"
            )
            versions.append(receipt["version"])
            expected[receipt["version"]] = {
                s.subscription.id: _watched(shadow, *w)
                for s, w in zip(subscribers, WATCHES)
            }
            time.sleep(0.02)  # let pushes interleave with the next batch
        final_version = versions[-1]

        # The sentinel batch changed every watched set, so every
        # subscriber eventually holds a diff tagged with the final
        # version — wait for that, then drain.
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            if all(
                any(d.graph_version == final_version for d in s.diffs)
                for s in subscribers
            ):
                break
            time.sleep(0.05)
        else:
            pytest.fail(
                "subscribers never saw the sentinel diff: "
                + str([[d.to_dict() for d in s.diffs] for s in subscribers])
            )

        gateway.subscriptions.disconnect_consumers()
        for sub in subscribers:
            sub.join(timeout=10.0)
            assert not sub.is_alive(), "subscriber thread failed to drain"
            assert sub.error is None, f"subscriber raised: {sub.error!r}"

        for sub, (vertex, k) in zip(subscribers, WATCHES):
            # Gapless per-subscription event ids, starting right after
            # the registration snapshot.
            ids = [d.event_id for d in sub.diffs]
            assert ids == list(
                range(sub.snapshot.event_id + 1, sub.snapshot.event_id + 1 + len(ids))
            ), f"{vertex}: event ids {ids} are not contiguous"
            # Every received diff lands on an acknowledged version and
            # composes to the shadow's full recompute at that version.
            members = frozenset(sub.snapshot.joined)
            for diff in sub.diffs:
                assert diff.graph_version in expected, (
                    f"{vertex}: diff tagged unknown version {diff.graph_version}"
                )
                members = diff.apply_to(members)
                assert members == expected[diff.graph_version][sub.subscription.id], (
                    f"{vertex}: composed membership diverges from the shadow "
                    f"at version {diff.graph_version}"
                )
            assert members == expected[final_version][sub.subscription.id]

        # The partition-local batches must have been skipped for the
        # partitions they cannot touch — the matcher's whole point.
        matcher = gateway.subscriptions.stats()["matcher"]
        assert matcher["affected"] < matcher["decisions"], (
            f"matcher never skipped a re-evaluation: {matcher}"
        )
        writer.close()
        shadow.close()
    finally:
        gateway.close()
