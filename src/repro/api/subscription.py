"""Wire types for standing subscriptions and pushed community diffs.

A :class:`Subscription` is a *standing* PCS query: instead of asking
"what is D's community at k=6 right now?" once, a client registers the
question and the serving tier re-answers it after every edit batch that
could possibly have changed the answer (see
:mod:`repro.subscribe.matcher` for the dirty-label selectivity model).
Changes are pushed as :class:`CommunityDiff` events — the vertices that
*joined* and *left* the subscription's watched member set, tagged with
the ``graph_version`` the new answer is exact at.

The watched set of a subscription is the **union of the member sets of
every community** its query returns (a PCS answer is a list of
communities, one per maximal feasible label subtree; the union is the
"everyone in a community with q" view a watcher cares about, and it makes
diffs well-defined even when the set of subtrees itself changes).

Diffs compose: applying them in ``event_id`` order via
:meth:`CommunityDiff.apply_to` reconstructs the watched set at every
version. The first event of every stream — and any event after a resume
gap — carries ``reset=True`` and the full membership, so a late joiner
needs no out-of-band snapshot.

Both types are plain frozen dataclasses with ``to_dict``/``from_dict``
inverses, mirroring :class:`~repro.api.query.Query`'s wire conventions
(unknown fields rejected; malformed payloads raise
:class:`~repro.errors.InvalidInputError`).
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import FrozenSet, Hashable, Optional, Tuple

from repro.engine.query import Query
from repro.errors import InvalidInputError

__all__ = ["Subscription", "CommunityDiff"]

Vertex = Hashable


def _sorted_vertices(items) -> Tuple[Vertex, ...]:
    """Deterministic wire order for a vertex collection (sorted by repr)."""
    return tuple(sorted(items, key=repr))


@dataclass(frozen=True)
class Subscription:
    """One standing PCS query: ``(vertex, k, method, cohesion)`` plus an id.

    ``k``/``method``/``cohesion`` of ``None`` inherit the serving
    engine's defaults at evaluation time, exactly like a
    :class:`~repro.api.query.Query` — so a subscription and a one-shot
    query spelled the same way watch the same answer.
    """

    vertex: Vertex
    k: Optional[int] = None
    method: Optional[str] = None
    cohesion: Optional[str] = None
    #: Client-visible identity; auto-generated by :meth:`new` when omitted.
    id: str = ""

    def __post_init__(self) -> None:
        if self.cohesion is not None and not isinstance(self.cohesion, str):
            raise InvalidInputError(
                f"cohesion must be a registered model name, got {self.cohesion!r}"
            )
        # A subscription is a standing Query: validate and canonicalise
        # through it, so the two cannot drift.
        query = Query(self.vertex, self.k, self.method, self.cohesion)
        object.__setattr__(self, "method", query.method)
        object.__setattr__(self, "cohesion", query.cohesion)
        if not isinstance(self.id, str):
            raise InvalidInputError(f"subscription id must be a string, got {self.id!r}")

    @classmethod
    def new(
        cls,
        vertex: Vertex,
        k: Optional[int] = None,
        method: Optional[str] = None,
        cohesion: Optional[str] = None,
        id: Optional[str] = None,
    ) -> "Subscription":
        """A subscription with a fresh (or caller-pinned) identity."""
        return cls(
            vertex=vertex,
            k=k,
            method=method,
            cohesion=cohesion,
            id=id or uuid.uuid4().hex,
        )

    def to_dict(self) -> dict:
        """The wire payload (``None`` fields omitted, like ``Query``)."""
        payload: dict = {"id": self.id, "vertex": self.vertex}
        if self.k is not None:
            payload["k"] = self.k
        if self.method is not None:
            payload["method"] = self.method
        if self.cohesion is not None:
            payload["cohesion"] = self.cohesion
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Subscription":
        """Inverse of :meth:`to_dict`; unknown fields are rejected."""
        if not isinstance(payload, dict):
            raise InvalidInputError(
                f"subscription payload must be a mapping, got {type(payload).__name__}"
            )
        known = {"id", "vertex", "k", "method", "cohesion"}
        unknown = set(payload) - known
        if unknown:
            raise InvalidInputError(
                f"unknown subscription fields {sorted(unknown)}; expected {sorted(known)}"
            )
        if "vertex" not in payload:
            raise InvalidInputError("subscription payload needs a 'vertex' field")
        return cls.new(
            vertex=payload["vertex"],
            k=payload.get("k"),
            method=payload.get("method"),
            cohesion=payload.get("cohesion"),
            id=payload.get("id"),
        )


@dataclass(frozen=True)
class CommunityDiff:
    """One pushed change of a subscription's watched member set.

    ``event_id`` is a per-subscription monotonic counter starting at 1
    (the registration snapshot); ``graph_version`` is the version the new
    membership is exact at. A ``reset`` diff carries the *full* membership
    in ``joined`` (``left`` is empty) and re-baselines the consumer — it
    is the first event of every stream and the recovery event after a
    resume gap.
    """

    subscription_id: str
    event_id: int
    graph_version: int
    joined: Tuple[Vertex, ...] = field(default_factory=tuple)
    left: Tuple[Vertex, ...] = field(default_factory=tuple)
    reset: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "joined", _sorted_vertices(self.joined))
        object.__setattr__(self, "left", _sorted_vertices(self.left))
        if self.event_id < 1:
            raise InvalidInputError(f"event_id must be >= 1, got {self.event_id}")
        if self.reset and self.left:
            raise InvalidInputError("a reset diff must not carry 'left' vertices")

    def apply_to(self, members: FrozenSet[Vertex]) -> FrozenSet[Vertex]:
        """The membership after this diff (``members`` = the one before)."""
        if self.reset:
            return frozenset(self.joined)
        return (members | frozenset(self.joined)) - frozenset(self.left)

    def to_dict(self) -> dict:
        return {
            "subscription_id": self.subscription_id,
            "event_id": self.event_id,
            "graph_version": self.graph_version,
            "joined": list(self.joined),
            "left": list(self.left),
            "reset": self.reset,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CommunityDiff":
        """Inverse of :meth:`to_dict`; malformed payloads raise."""
        if not isinstance(payload, dict):
            raise InvalidInputError(
                f"diff payload must be a mapping, got {type(payload).__name__}"
            )
        try:
            return cls(
                subscription_id=payload["subscription_id"],
                event_id=int(payload["event_id"]),
                graph_version=int(payload["graph_version"]),
                joined=tuple(payload.get("joined", ())),
                left=tuple(payload.get("left", ())),
                reset=bool(payload.get("reset", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed diff payload: {exc}") from exc
