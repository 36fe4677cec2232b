"""Hypothesis properties for the subscription tier (satellite of ISSUE PR-10).

Three invariants carry the whole design:

* **Matcher soundness** — the dirty-label filter may over-approximate
  (re-evaluating an unaffected subscription costs latency) but must never
  *miss*: after every edit batch, every subscription's stored membership
  equals an independent full recompute at the current version, whether or
  not the matcher chose to re-evaluate it. A single unsound skip leaves
  the stored set stale and fails the assertion.

* **Diff composition** — replaying the emitted :class:`CommunityDiff`
  stream in ``event_id`` order reconstructs the full-recompute answer at
  *every* version the shadow recorded, not just the last one, and event
  ids are gapless.

* **Lagging readers** — a reader that polls by cursor at arbitrary
  moments, however far it has fallen behind a (tiny) retained window,
  composes what its reads return to the full-recompute answer at every
  version it reads at: it gets the diffs it missed, contiguously, or one
  ``reset`` — never a silent gap.

All run against random taxonomies, random labelled G(n, p) graphs and
random edit scripts (edge churn, vertex churn, re-profiling), with
subscriptions registered at several vertices and several ``k``.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import CommunityService, Subscription
from repro.core.profiled_graph import ProfiledGraph
from repro.errors import VertexNotFoundError
from repro.graph import Graph
from repro.ptree import Taxonomy
from repro.subscribe import SubscriptionManager

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


@st.composite
def subscription_scripts(draw):
    """A random labelled graph, subscriptions to watch, and edit batches.

    Everything is derived from drawn integers so shrinking stays
    effective; the op stream is materialised against the live vertex set
    at apply time (see ``_materialise``) so every batch is legal.
    """
    seed = draw(st.integers(0, 10_000))
    num_labels = draw(st.integers(2, 6))
    n = draw(st.integers(5, 11))
    p = draw(st.floats(0.15, 0.4))
    num_subs = draw(st.integers(1, 4))
    ks = draw(st.lists(st.integers(1, 3), min_size=num_subs, max_size=num_subs))
    batches = draw(
        st.lists(
            st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
            min_size=1,
            max_size=6,
        )
    )
    return seed, num_labels, n, p, ks, batches


def _build(seed: int, num_labels: int, n: int, p: float) -> ProfiledGraph:
    rng = random.Random(seed)
    tax = Taxonomy()
    for i in range(1, num_labels + 1):
        tax.add(f"L{i}", parent=rng.randrange(i))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    graph = Graph(edges)
    for v in range(n):
        graph.add_vertex(v)
    profiles = {
        v: rng.sample(range(1, num_labels + 1), rng.randint(0, min(3, num_labels)))
        for v in range(n)
    }
    return ProfiledGraph(graph, tax, profiles)


def _materialise(code: int, live: set, num_labels: int, rng) -> dict:
    """One legal dict-form update derived from ``code``.

    ``live`` is a shadow of the vertex set *including earlier ops of the
    same batch*, mutated here so no op targets a vertex a previous op
    removed (``remove_vertex``/``set_profile`` raise on missing vertices).
    """
    vertices = sorted(live, key=repr)
    kind = code % 5
    a = (code >> 3) % max(1, len(vertices))
    b = (code >> 9) % max(1, len(vertices))
    if kind == 0 and len(vertices) >= 2 and vertices[a] != vertices[b]:
        return {"op": "add_edge", "u": vertices[a], "v": vertices[b]}
    if kind == 1 and len(vertices) >= 2 and vertices[a] != vertices[b]:
        return {"op": "remove_edge", "u": vertices[a], "v": vertices[b]}
    if kind == 2:
        labels = rng.sample(
            range(1, num_labels + 1), rng.randint(0, min(2, num_labels))
        )
        fresh = 1000 + code % 97
        live.add(fresh)
        return {"op": "add_vertex", "u": fresh, "labels": labels}
    if kind == 3 and len(vertices) > 2:
        live.discard(vertices[a])
        return {"op": "remove_vertex", "u": vertices[a]}
    if vertices:
        labels = rng.sample(
            range(1, num_labels + 1), rng.randint(0, min(3, num_labels))
        )
        return {"op": "set_profile", "u": vertices[a], "labels": labels}
    fresh = 1000 + code % 97
    live.add(fresh)
    return {"op": "add_vertex", "u": fresh, "labels": []}


def _recompute(service: CommunityService, sub: Subscription) -> frozenset:
    """The watched set by full recompute (union of community vertex sets).

    A vanished query vertex is a legal standing-query state — membership
    is empty until the vertex returns — mirroring the manager.
    """
    try:
        result = service.explorer.explore(
            sub.vertex, k=sub.k, method=sub.method, cohesion=sub.cohesion
        )
    except VertexNotFoundError:
        return frozenset()
    members: set = set()
    for community in result.communities:
        members |= community.vertices
    return frozenset(members)


def _run_script(script, after_batch, event_log_size=4096):
    """Drive one drawn script and call ``after_batch`` at every version.

    Returns ``(subs, events_by_sub)`` with each subscription's full
    retained event stream, captured just before teardown (the default
    ``event_log_size`` keeps every event of these small scripts).
    """
    seed, num_labels, n, p, ks, batches = script
    rng = random.Random(seed ^ 0xBEEF)
    pg = _build(seed, num_labels, n, p)
    service = CommunityService(pg, cache_size=None)
    manager = SubscriptionManager(service, event_log_size=event_log_size)
    try:
        query_vertices = rng.sample(range(n), len(ks))
        subs = [
            Subscription.new(vertex, k=k)
            for vertex, k in zip(query_vertices, ks)
        ]
        for sub in subs:
            manager.register(sub)
        for codes in batches:
            live = set(service.pg.graph.vertices())
            updates = [
                _materialise(code, live, num_labels, rng) for code in codes
            ]
            service.apply_updates(updates)
            after_batch(service, manager, subs)
        events_by_sub = {
            sub.id: list(manager.events_since(sub.id, 0)) for sub in subs
        }
    finally:
        manager.close()
        service.close()
    return subs, events_by_sub


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=subscription_scripts())
def test_matcher_never_misses(script):
    """Skipped or not, stored membership always equals a full recompute."""

    def check(service, manager, subs):
        for sub in subs:
            assert manager.members(sub.id) == _recompute(service, sub), (
                f"stale membership for {sub} at version {service.pg.version}: "
                f"matcher skipped a batch that changed the answer"
            )

    _run_script(script, check)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=subscription_scripts())
def test_diff_composition_reconstructs_every_version(script):
    """Composing the event stream reproduces the shadow at each version."""
    shadow = []  # (version, {sub_id: expected members})

    def record(service, manager, subs):
        shadow.append(
            (
                service.pg.version,
                {sub.id: _recompute(service, sub) for sub in subs},
            )
        )

    subs, events_by_sub = _run_script(script, record)
    for sub in subs:
        events = events_by_sub[sub.id]
        assert [d.event_id for d in events] == list(
            range(1, len(events) + 1)
        ), "event ids must be gapless and start at the registration snapshot"
        assert events[0].reset
        composed = frozenset()
        cursor = 0
        for version, expected in shadow:
            while cursor < len(events) and events[cursor].graph_version <= version:
                composed = events[cursor].apply_to(composed)
                cursor += 1
            assert composed == expected[sub.id], (
                f"composed diffs for {sub} diverge from the shadow "
                f"recompute at version {version}"
            )
        assert cursor == len(events), "a diff was tagged beyond the final version"


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    script=subscription_scripts(),
    more_batches=st.lists(
        st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
        min_size=6,
        max_size=12,
    ),
    window=st.integers(1, 2),
    read_now=st.lists(
        st.sampled_from([False, False, False, True]), min_size=18, max_size=18
    ),
)
def test_lagging_reader_composes_to_every_version_it_reads(
    script, more_batches, window, read_now
):
    """Cursor reads at random moments never leave a silent gap."""
    # Longer scripts than the other properties: a reader only falls out of
    # the window after missing more diffs than it retains.
    script = script[:-1] + (script[-1] + more_batches,)
    cursors: dict = {}  # sub id -> last event id read
    composed: dict = {}  # sub id -> membership composed from the reads
    # One flag per batch; the reader always reads after the last one.
    reads = iter(read_now[: len(script[-1]) - 1] + [True])

    def maybe_read(service, manager, subs):
        if not next(reads):
            return  # stays behind
        for sub in subs:
            cursor = cursors.get(sub.id, 0)
            for position, diff in enumerate(manager.poll(sub.id, cursor, timeout=0)):
                if diff.reset:
                    assert position == 0, "a reset must open the read that carries it"
                else:
                    assert diff.event_id == cursor + 1, (
                        f"gap in {sub}: event {diff.event_id} after cursor {cursor}"
                    )
                composed[sub.id] = diff.apply_to(composed.get(sub.id, frozenset()))
                cursor = diff.event_id
            cursors[sub.id] = cursor
            assert composed.get(sub.id, frozenset()) == _recompute(service, sub), (
                f"lagging reader of {sub} diverges from the full recompute at "
                f"version {service.pg.version} (window {window})"
            )

    _run_script(script, maybe_read, event_log_size=window)
