"""The :class:`QueryResponse` envelope — one query's complete, serialisable answer.

:class:`~repro.core.community.PCSResult` is the *computation's* output: live
:class:`~repro.ptree.ptree.PTree` objects tied to a taxonomy instance.
:class:`QueryResponse` is the *serving layer's* output: the same communities
flattened to plain values (member vertices, theme label names, subtree node
ids) plus everything a client needs to interpret them —

* ranking/pagination metadata: communities arrive in the deterministic PCS
  order (decreasing subtree size, then community size), ``total_communities``
  / ``matched`` / ``truncated`` describe what the ``limit`` / ``min_size``
  post-filters did;
* provenance: which method actually ran (and the planner's
  :class:`~repro.api.planner.PlanDecision` when it chose), whether the
  result came from the engine's cache, whether the CP-tree index was used,
  and the graph ``version`` the answer reflects;
* timing: the algorithm's ``elapsed_ms`` and verification count.

``to_dict()`` / ``from_dict()`` round-trip losslessly through JSON — the
same envelope backs ``repro query --json``, ``repro batch`` and the
service layer, so there is exactly one wire format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional, Tuple

from repro.api.planner import PlanDecision
from repro.api.query import Query, cohesion_name
from repro.core.community import PCSResult, ProfiledCommunity
from repro.errors import InvalidInputError

Vertex = Hashable

#: Wire-format version; bump on incompatible envelope changes.
API_VERSION = 1

_RESPONSE_FIELDS = (
    "query",
    "method",
    "k",
    "cohesion",
    "communities",
    "total_communities",
    "matched",
    "truncated",
    "elapsed_ms",
    "num_verifications",
    "cache_hit",
    "index_used",
    "graph_version",
    "plan",
    "api_version",
)


@dataclass(frozen=True)
class CommunityView:
    """One community, flattened for the wire.

    ``vertices`` are sorted by ``repr`` (deterministic across vertex types),
    ``theme`` is the sorted shared label names, ``subtree_nodes`` the sorted
    taxonomy node ids of the maximal feasible subtree.
    """

    vertices: Tuple[Vertex, ...]
    theme: Tuple[str, ...]
    subtree_nodes: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)

    @classmethod
    def from_community(cls, community: ProfiledCommunity) -> "CommunityView":
        return cls(
            vertices=community.sorted_vertices,
            theme=tuple(sorted(community.theme())),
            subtree_nodes=tuple(sorted(community.subtree.nodes)),
        )

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "vertices": list(self.vertices),
            "theme": list(self.theme),
            "subtree_nodes": list(self.subtree_nodes),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CommunityView":
        """Inverse of :meth:`to_dict`; malformed payloads raise."""
        try:
            return cls(
                vertices=tuple(payload["vertices"]),
                theme=tuple(payload["theme"]),
                subtree_nodes=tuple(payload["subtree_nodes"]),
            )
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed community payload: {exc}") from exc


def _apply_page(items, query: Query):
    """The query's ``min_size``/``limit`` post-filters over ``items``.

    ``items`` may be views or live communities — anything with ``.size``.
    Returns ``(kept, matched, truncated)`` where ``matched`` counts the
    survivors of ``min_size`` before ``limit`` cut the page. The single
    filtering implementation behind both :meth:`QueryResponse.from_result`
    and :meth:`QueryResponse.page`, so the wire page and the live page can
    never disagree.
    """
    if query.min_size > 1:
        kept = [c for c in items if c.size >= query.min_size]
    else:
        kept = items
    matched = len(kept)
    truncated = query.limit is not None and matched > query.limit
    if truncated:
        kept = kept[: query.limit]
    return kept, matched, truncated


def _views_of(result: PCSResult) -> Tuple[CommunityView, ...]:
    """The result's communities as views, computed once per result object.

    Cached results are served many times under interactive re-querying;
    their communities are immutable, so the flattened views are memoised on
    the result instance and shared by every envelope built from it. This
    keeps cache-hit serving through the facade within a few percent of the
    bare engine.
    """
    views = getattr(result, "_community_views", None)
    if views is None:
        views = tuple(CommunityView.from_community(c) for c in result)
        result._community_views = views
    return views


@dataclass(frozen=True)
class QueryResponse:
    """The serving envelope around one PCS answer (see module docstring).

    ``communities`` holds the post-filtered page; ``total_communities``
    counts everything the query produced, ``matched`` what survived the
    ``min_size`` filter, and ``truncated`` whether ``limit`` cut the page
    short. ``cache_hit`` is ``None`` when provenance was not tracked.

    The live :class:`~repro.core.community.PCSResult` (with its PTree
    subtrees) rides along in ``result`` for in-process callers; it is
    excluded from equality and from the wire format, so a deserialised
    response compares equal to the original.
    """

    query: Query
    method: str
    k: int
    cohesion: str
    communities: Tuple[CommunityView, ...]
    total_communities: int
    matched: int
    truncated: bool
    elapsed_ms: float
    num_verifications: int
    cache_hit: Optional[bool] = None
    index_used: bool = False
    graph_version: Optional[int] = None
    plan: Optional[PlanDecision] = None
    api_version: int = API_VERSION
    result: Optional[PCSResult] = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.communities)

    def __iter__(self):
        return iter(self.communities)

    @property
    def returned(self) -> int:
        """Communities in this page (after ``min_size`` and ``limit``)."""
        return len(self.communities)

    # ------------------------------------------------------------------
    # construction from a computation
    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        result: PCSResult,
        query: Query,
        cache_hit: Optional[bool] = None,
        index_used: bool = False,
        graph_version: Optional[int] = None,
        plan: Optional[PlanDecision] = None,
    ) -> "QueryResponse":
        """Wrap a :class:`PCSResult`, applying the query's post-filters."""
        views = _views_of(result)
        kept, matched, truncated = _apply_page(views, query)
        return cls(
            query=query,
            method=result.method,
            k=result.k,
            cohesion=cohesion_name(query.cohesion),
            communities=tuple(kept) if not isinstance(kept, tuple) else kept,
            total_communities=len(views),
            matched=matched,
            truncated=truncated,
            elapsed_ms=result.elapsed_seconds * 1000.0,
            num_verifications=result.num_verifications,
            cache_hit=cache_hit,
            index_used=index_used,
            graph_version=graph_version,
            plan=plan,
            result=result,
        )

    def page(self):
        """The served page as live :class:`ProfiledCommunity` objects.

        The same ``min_size``/``limit`` filtering that produced
        ``communities``, applied to the attached in-process result —
        aligned 1:1 with the views. Requires ``result`` (raises on
        deserialised responses, which carry only the flattened views).
        """
        if self.result is None:
            raise InvalidInputError(
                "page() needs the in-process result; this response was "
                "deserialised and carries only the flattened communities"
            )
        return _apply_page(list(self.result), self.query)[0]

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-ready dict; lossless through :meth:`from_dict`."""
        return {
            "api_version": self.api_version,
            "query": self.query.to_dict(),
            "method": self.method,
            "k": self.k,
            "cohesion": self.cohesion,
            "total_communities": self.total_communities,
            "matched": self.matched,
            "returned": self.returned,
            "truncated": self.truncated,
            "elapsed_ms": self.elapsed_ms,
            "num_verifications": self.num_verifications,
            "cache_hit": self.cache_hit,
            "index_used": self.index_used,
            "graph_version": self.graph_version,
            "plan": None if self.plan is None else self.plan.to_dict(),
            "communities": [c.to_dict() for c in self.communities],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryResponse":
        """Inverse of :meth:`to_dict` (``result`` is not reconstructed)."""
        if not isinstance(payload, dict):
            raise InvalidInputError(
                f"QueryResponse.from_dict needs a mapping, got {payload!r}"
            )
        data = dict(payload)
        data.pop("returned", None)  # derived; recomputed from communities
        unknown = set(data) - set(_RESPONSE_FIELDS)
        if unknown:
            raise InvalidInputError(f"unknown QueryResponse fields: {sorted(unknown)}")
        missing = {"query", "method", "k", "communities"} - set(data)
        if missing:
            raise InvalidInputError(f"QueryResponse payload missing {sorted(missing)}")
        try:
            return cls(
                query=Query.from_dict(data["query"]),
                method=data["method"],
                k=data["k"],
                cohesion=data.get("cohesion", "k-core"),
                communities=tuple(
                    CommunityView.from_dict(c) for c in data["communities"]
                ),
                total_communities=data.get("total_communities", len(data["communities"])),
                matched=data.get("matched", len(data["communities"])),
                truncated=data.get("truncated", False),
                elapsed_ms=data.get("elapsed_ms", 0.0),
                num_verifications=data.get("num_verifications", 0),
                cache_hit=data.get("cache_hit"),
                index_used=data.get("index_used", False),
                graph_version=data.get("graph_version"),
                plan=(
                    None
                    if data.get("plan") is None
                    else PlanDecision.from_dict(data["plan"])
                ),
                api_version=data.get("api_version", API_VERSION),
            )
        except TypeError as exc:
            raise InvalidInputError(f"malformed QueryResponse payload: {exc}") from exc
