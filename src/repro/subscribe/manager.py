"""The subscription manager: standing queries, diff streams, durability.

:class:`SubscriptionManager` owns every standing query registered against
one :class:`~repro.api.service.CommunityService`. It hooks the engine's
update pipeline (:meth:`CommunityExplorer.add_update_hook
<repro.engine.explorer.CommunityExplorer.add_update_hook>`), so after
every ``apply_updates`` batch — while the mutation lock is still held and
the graph provably sits at the receipt's version — it:

1. intersects the batch's :class:`~repro.index.maintenance.BatchDamage`
   with each subscription's label footprint
   (:class:`~repro.subscribe.matcher.SubscriptionMatcher`) and re-executes
   only the possibly-affected subscriptions;
2. re-evaluates those through the engine's versioned cache (incremental
   methods like ``incre`` apply exactly as they do for one-shot queries);
3. computes joined/left member diffs against each subscription's last
   answer, assigns per-subscription monotonic event ids, appends the
   diffs to the subscription's retained event window, and wakes every
   blocked reader.

Because the hook runs synchronously under the mutation lock, a published
:class:`~repro.api.subscription.CommunityDiff` tagged ``graph_version=v``
is *exactly* the full-recompute answer at version ``v`` — there is no
window in which a second batch can slide underneath the evaluation. The
differential stress test and the benchmark's correctness gate both lean
on that guarantee.

Delivery is one structure read one way: each subscription retains a
bounded window of its latest diffs, and the one transport, the HTTP
long-poll, is a :meth:`SubscriptionManager.poll` call carrying the
reader's cursor, the last event id it saw. The manager holds no per-reader state:
the write path never waits for or buffers per reader, and a reader any
distance behind gets the diffs it missed or, once its cursor has fallen
out of the window, one ``reset`` snapshot diff — a gap is never silent
and memory stays bounded by the window.

Durability rides the service's own WAL and snapshot (:mod:`repro.storage`):
on a ``storage_dir=`` session, registering and unregistering append one
zero-advance WAL record each, and a checkpoint writes every subscription's
head and retained window into the snapshot. Diffs are never logged — a
diff tagged ``v`` is a function of the graph history and the
registrations, so boot re-derives each one by replaying the WAL's batches
with this manager's hook attached. A replica derives the writer's windows
the same way: registrations reach it as records of the writer's WAL
stream, and a resync installs the writer's checkpoint.

Lock ordering: the engine mutation lock is always taken *before* the
manager lock (registration and unregistration take both in that order;
the update hook already holds the mutation lock). Readers
take only the manager lock. This ordering is what makes synchronous
evaluation deadlock-free.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.api.subscription import CommunityDiff, Subscription
from repro.errors import InvalidInputError, ReproError, VertexNotFoundError
from repro.index.maintenance import BatchDamage
from repro.subscribe.matcher import SubscriptionMatcher

__all__ = [
    "SubscriptionManager",
    "SubscriptionNotFoundError",
    "DEFAULT_EVENT_LOG_SIZE",
]

Vertex = Hashable

#: Diffs retained per subscription for ``Last-Event-ID`` resume. A client
#: further behind than this receives a ``reset`` snapshot instead.
DEFAULT_EVENT_LOG_SIZE = 1024


class SubscriptionNotFoundError(ReproError):
    """The referenced subscription id is not registered here."""

    def __init__(self, sub_id: str) -> None:
        super().__init__(f"unknown subscription {sub_id!r}")
        self.sub_id = sub_id


class _SubscriptionState:
    """Book-keeping for one registered subscription (manager-lock guarded)."""

    __slots__ = (
        "sub",
        "footprint",
        "sensitive_to_all",
        "members",
        "last_version",
        "next_event_id",
        "events",
    )

    def __init__(self, sub: Subscription, event_log_size: int) -> None:
        self.sub = sub
        self.footprint: FrozenSet[int] = frozenset()
        self.sensitive_to_all = True
        self.members: FrozenSet[Vertex] = frozenset()
        self.last_version = -1
        self.next_event_id = 1
        self.events: Deque[CommunityDiff] = deque(maxlen=event_log_size)

    def head_snapshot(self) -> CommunityDiff:
        """A ``reset`` diff re-baselining a reader at the latest event."""
        return CommunityDiff(
            subscription_id=self.sub.id,
            event_id=max(1, self.next_event_id - 1),
            graph_version=self.last_version,
            joined=tuple(self.members),
            reset=True,
        )

    def durable_entry(self) -> dict:
        """The WAL registration / snapshot-section entry: the subscription,
        its head and its retained window."""
        return {
            "subscription": self.sub.to_dict(),
            "head": self.head_snapshot().to_dict(),
            "events": [diff.to_dict() for diff in self.events],
        }


class SubscriptionManager:
    """Standing queries over one community service (see module docstring).

    Parameters
    ----------
    service:
        The :class:`~repro.api.service.CommunityService` whose engine this
        manager hooks; the manager becomes its ``subscriptions``. On a
        durable service every registration is logged to the service's WAL.
    event_log_size:
        Diffs retained per subscription (see :data:`DEFAULT_EVENT_LOG_SIZE`).
    """

    def __init__(
        self,
        service,
        event_log_size: int = DEFAULT_EVENT_LOG_SIZE,
    ) -> None:
        self._service = service
        self._event_log_size = event_log_size
        self.matcher = SubscriptionMatcher()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._states: Dict[str, _SubscriptionState] = {}
        self._closed = False
        self._draining = False
        self._waiting = 0
        self._batches = 0
        self._reevaluations = 0
        self._events_published = 0
        self._hook_errors = 0
        self._last_error: Optional[str] = None
        self._last_batch: Dict[str, int] = {"subscriptions": 0, "reevaluated": 0}
        service.subscriptions = self
        service.explorer.add_update_hook(self._on_updates)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def disconnect_consumers(self) -> None:
        """End every blocked read *without* stopping the manager.

        The first half of the gateway's drain: handler threads blocked in
        :meth:`poll` wake and return, so
        the HTTP server can join them — while the update hook stays
        attached, so writes still in flight keep producing their diffs
        (and the drain's checkpoint captures them). Later reads return
        what the window holds and never block.
        """
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def close(self) -> None:
        """Stop serving: wake every blocked reader, drop the hook, leave the service."""
        self._service.explorer.remove_update_hook(self._on_updates)
        if self._service.subscriptions is self:
            self._service.subscriptions = None
        with self._cond:
            self._closed = True
            self._draining = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, sub: Subscription) -> CommunityDiff:
        """Register a standing query; returns its ``reset`` snapshot diff.

        The snapshot (event id 1) carries the full current membership at
        the registration version — the baseline every later diff composes
        onto. On a durable service the registration, head included, is
        fsync'd to the WAL before it is installed and acknowledged.
        """
        with self._service.explorer.mutation_lock:
            with self._cond:
                if self._closed:
                    raise InvalidInputError("subscription manager is closed")
                if sub.id in self._states:
                    raise InvalidInputError(
                        f"subscription id {sub.id!r} is already registered"
                    )
                state = _SubscriptionState(sub, self._event_log_size)
                members, footprint, sensitive = self._evaluate(sub)
                version = self._service.pg.version
                state.members = members
                state.footprint = footprint
                state.sensitive_to_all = sensitive
                state.last_version = version
                state.next_event_id = 2
                diff = state.head_snapshot()  # event id 1: the head is the baseline
                state.events.append(diff)
                self._log_locked(version, state.durable_entry())
                self._states[sub.id] = state
                return diff

    def unregister(self, sub_id: str) -> bool:
        """Drop a subscription; reads blocked on it end cleanly."""
        with self._service.explorer.mutation_lock:
            with self._cond:
                if sub_id not in self._states:
                    return False
                self._log_locked(self._service.pg.version, {"unregister": sub_id})
                del self._states[sub_id]
                self._cond.notify_all()
                return True

    def _log_locked(self, version: int, entry: dict) -> None:
        """Append ``entry`` as a zero-advance WAL record (durable services only)."""
        storage = self._service.storage
        if storage is not None:
            storage.wal.append_subscription(version, entry)

    def get(self, sub_id: str) -> Subscription:
        """The registered subscription behind ``sub_id`` (404 if unknown)."""
        with self._lock:
            return self._state_locked(sub_id).sub

    def subscriptions(self) -> List[Subscription]:
        """Every currently registered subscription (order unspecified)."""
        with self._lock:
            return [state.sub for state in self._states.values()]

    def members(self, sub_id: str) -> FrozenSet[Vertex]:
        """The watched member set as of the last evaluation."""
        with self._lock:
            return self._state_locked(sub_id).members

    def _state_locked(self, sub_id: str) -> _SubscriptionState:
        state = self._states.get(sub_id)
        if state is None:
            raise SubscriptionNotFoundError(sub_id)
        return state

    def __len__(self) -> int:
        with self._lock:
            return len(self._states)

    # ------------------------------------------------------------------
    # evaluation (both locks held: mutation lock outside, manager inside)
    # ------------------------------------------------------------------
    def _evaluate(self, sub: Subscription) -> Tuple[FrozenSet[Vertex], FrozenSet[int], bool]:
        """``(members, footprint, sensitive_to_all)`` at the current version.

        Must be called with the engine mutation lock held so the graph
        cannot move mid-evaluation. A vanished query vertex is a legal
        state (membership ∅, re-evaluate on any batch until it returns).
        """
        explorer = self._service.explorer
        pg = self._service.pg
        root = pg.taxonomy.root
        try:
            # The taxonomy root is in *every* non-empty closure (ancestor
            # closure runs to the root), so keeping it in the footprint
            # would make every edge edit between labelled vertices match
            # every subscription. Dropping it is sound because a theme
            # strictly below the root confines its community to vertices
            # carrying that theme — root-level damage only matters to
            # answers that contain a root-only (or empty-theme) community,
            # which the sensitivity flag below tracks explicitly.
            footprint = pg.labels(sub.vertex) - {root}
        except VertexNotFoundError:
            return frozenset(), frozenset(), True
        try:
            result = explorer.explore(
                sub.vertex, k=sub.k, method=sub.method, cohesion=sub.cohesion
            )
        except VertexNotFoundError:  # pragma: no cover - raced removal
            return frozenset(), footprint, True
        members: set = set()
        sensitive = not result.communities
        for community in result.communities:
            members |= community.vertices
            if not (community.subtree.nodes - {root}):
                # A root-only or empty-theme community (the plain k-core of
                # the labelled — or whole — graph) lives outside any label
                # filter: edits anywhere can change it, and its
                # disappearance is what lets a deeper theme's maximality
                # flip. Re-evaluate on every batch while one is present.
                sensitive = True
        return frozenset(members), footprint, sensitive

    def _on_updates(self, receipt, damage: Optional[BatchDamage]) -> None:
        """The engine post-update hook (mutation lock held by the caller).

        Never raises: a subscription that fails to evaluate is marked
        always-affected and retried on the next batch, and the failure is
        surfaced through :meth:`stats` — a broken subscriber tier must
        not fail the write path that triggered it.
        """
        try:
            self._process_batch(receipt, damage)
        except Exception as exc:  # noqa: BLE001 - write path must survive
            with self._lock:
                self._hook_errors += 1
                self._last_error = f"{type(exc).__name__}: {exc}"

    def _process_batch(self, receipt, damage: Optional[BatchDamage]) -> None:
        with self._cond:
            if self._closed or not self._states:
                return
            affected = [
                state
                for state in self._states.values()
                if self.matcher.decide(
                    state.footprint,
                    state.sensitive_to_all,
                    state.sub.vertex,
                    damage,
                )
            ]
            self._batches += 1
            self._reevaluations += len(affected)
            self._last_batch = {
                "subscriptions": len(self._states),
                "reevaluated": len(affected),
            }
            published = False
            for state in affected:
                try:
                    published |= self._reevaluate_locked(state, receipt.version)
                except Exception as exc:  # noqa: BLE001 - isolate per subscription
                    state.sensitive_to_all = True
                    self._hook_errors += 1
                    self._last_error = f"{type(exc).__name__}: {exc}"
            if published:
                self._cond.notify_all()

    def _reevaluate_locked(self, state: _SubscriptionState, version: int) -> bool:
        """Re-evaluate ``state`` at ``version`` (both locks held).

        A moved answer becomes the subscription's next event in the
        retained window and returns True.
        """
        members, footprint, sensitive = self._evaluate(state.sub)
        state.footprint = footprint
        state.sensitive_to_all = sensitive
        state.last_version = version
        joined = members - state.members
        left = state.members - members
        if not joined and not left:
            return False
        diff = CommunityDiff(
            subscription_id=state.sub.id,
            event_id=state.next_event_id,
            graph_version=version,
            joined=tuple(joined),
            left=tuple(left),
        )
        state.next_event_id += 1
        state.members = members
        state.events.append(diff)
        self._events_published += 1
        return True

    # ------------------------------------------------------------------
    # event delivery: cursor reads over the retained window
    # ------------------------------------------------------------------
    def _events_since_locked(
        self, state: _SubscriptionState, last_event_id: Optional[int]
    ) -> List[CommunityDiff]:
        after = 0 if last_event_id is None else max(0, last_event_id)
        if after >= state.next_event_id - 1 and after < state.next_event_id:
            return []  # fully caught up (what every parked reader's wake check sees)
        retained = list(state.events)
        first_retained = retained[0].event_id if retained else state.next_event_id
        if after + 1 < first_retained or after >= state.next_event_id:
            # Outside the retained window (too old, or from another
            # incarnation): re-baseline with a reset snapshot at the head.
            return [state.head_snapshot()]
        return [diff for diff in retained if diff.event_id > after]

    def events_since(
        self, sub_id: str, last_event_id: Optional[int] = None
    ) -> List[CommunityDiff]:
        """Retained diffs after ``last_event_id`` (see resume semantics).

        ``None``/``0`` mean "from the beginning". A requested id older
        than the retained window answers a single ``reset`` snapshot that
        re-baselines the reader at the current membership.
        """
        with self._lock:
            return self._events_since_locked(self._state_locked(sub_id), last_event_id)

    def poll(
        self,
        sub_id: str,
        last_event_id: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> List[CommunityDiff]:
        """Block up to ``timeout`` for diffs after ``last_event_id``.

        The one read behind ``POST /subscribe/poll``. While draining it
        never blocks; an unregistered subscription raises, even mid-wait.
        """
        with self._cond:
            self._waiting += 1
            try:
                self._cond.wait_for(
                    lambda: self._poll_ready_locked(sub_id, last_event_id),
                    timeout=timeout,
                )
            finally:
                self._waiting -= 1
            return self._events_since_locked(self._state_locked(sub_id), last_event_id)

    def _poll_ready_locked(self, sub_id: str, last_event_id: Optional[int]) -> bool:
        """The one wake predicate; ``wait_for`` holds the lock."""
        current = self._states.get(sub_id)
        return (
            self._draining
            or current is None
            or bool(self._events_since_locked(current, last_event_id))
        )

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def restore(self, entry: dict) -> None:
        """Apply one durable entry: a snapshot section's or a WAL record's.

        In log order, at boot or off the replication stream. A registration
        installs its subscription at the head and window it carries unless
        the id is already registered — a record at a checkpoint's version
        sits both in the section and in the log, and a follower reconnecting
        at that version receives it again — and an unregistration drops the
        id if present. A malformed entry raises
        :class:`~repro.errors.InvalidInputError`.
        """
        with self._cond:
            if "unregister" in entry:
                if not isinstance(entry["unregister"], str):
                    raise InvalidInputError(f"malformed unregistration {entry!r}")
                self._states.pop(entry["unregister"], None)
                return
            sub = Subscription.from_dict(entry.get("subscription"))
            head = CommunityDiff.from_dict(entry.get("head"))
            try:
                members = head.apply_to(frozenset())
            except TypeError as exc:  # an unhashable member
                raise InvalidInputError(f"malformed subscription head: {exc}") from None
            if not head.reset or head.subscription_id != sub.id:
                raise InvalidInputError(
                    f"subscription entry head does not re-baseline {sub.id!r}"
                )
            events = entry.get("events")
            window = [CommunityDiff.from_dict(e) for e in events] if isinstance(events, list) else []
            if not window or [(d.subscription_id, d.event_id) for d in window] != [
                (sub.id, i) for i in range(head.event_id + 1 - len(window), head.event_id + 1)
            ]:
                raise InvalidInputError("subscription entry window does not end at its head")
            if sub.id in self._states:
                return
            state = _SubscriptionState(sub, self._event_log_size)
            state.members = members
            state.last_version = head.graph_version
            state.next_event_id = head.event_id + 1
            state.events.extend(window)
            self._states[sub.id] = state

    def heads(self) -> List[dict]:
        """One durable entry per live subscription, by id: the snapshot section."""
        with self._lock:
            return [self._states[key].durable_entry() for key in sorted(self._states)]

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``/stats`` subscription block (selectivity counters included)."""
        with self._lock:
            return {
                "subscriptions": len(self._states),
                "consumers": self._waiting,
                "batches": self._batches,
                "reevaluations": self._reevaluations,
                "events_published": self._events_published,
                "hook_errors": self._hook_errors,
                "last_error": self._last_error,
                "last_batch": dict(self._last_batch),
                "matcher": self.matcher.stats(),
                "durable": self._service.storage is not None,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"SubscriptionManager(subscriptions={len(self._states)}, "
                f"durable={self._service.storage is not None})"
            )
