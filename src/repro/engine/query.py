"""The :class:`Query` value object and its fluent builder.

One PCS request, fully described and validated up front::

    Query.vertex("D").k(6).method("adv-P").cohesion("k-truss").limit(10).min_size(3)

``Query`` is the only request type in the stack — the CLI, the batch
parser, the HTTP gateway, the service and the engine all carry this one
value, and :meth:`Query.cache_key` is the one function that says which
requests are the same computation. It lives in the engine package (it
needs only ``core`` and ``errors``); :mod:`repro.api.query` re-exports it
as the public import path. It is

* **immutable** — a frozen dataclass; the builder and ``replace()`` return
  new instances;
* **validated on construction** — an out-of-range ``k``, an unknown method
  or cohesion model, a bad ``limit`` raise
  :class:`~repro.errors.InvalidInputError` *before* any graph work starts;
* **canonically keyed** — :meth:`Query.cache_key` fills in the serving
  defaults, so ``method=None`` and the explicit default method key
  identically (``limit``/``min_size`` are excluded: they are
  post-filters over the same computed result and must share its cache
  entry); :meth:`Query.resolve` is the same defaulting as a ``Query``;
* **wire-serialisable** — :meth:`Query.to_dict` / :meth:`Query.from_dict`
  round-trip losslessly through JSON, and ``from_dict`` rejects unknown
  keys (a typo like ``{"methud": ...}`` is an error, not a silently applied
  default).

``method=None`` means *let the planner decide* (see
:class:`repro.api.planner.QueryPlanner`) or, below the planner,
:data:`DEFAULT_METHOD`; ``k=None`` inherits the session's ``default_k``
and ``cohesion=None`` is the paper's k-core.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple, Union

from repro.core.cohesion import CohesionModel, get_cohesion
from repro.core.search import normalize_method
from repro.errors import InvalidInputError

Vertex = Hashable

#: Paper defaults (§5.1).
DEFAULT_K = 6
DEFAULT_METHOD = "adv-P"

__all__ = [
    "DEFAULT_K",
    "DEFAULT_METHOD",
    "Query",
    "QueryBuilder",
    "canonical_cohesion",
    "cohesion_name",
    "normalize_method",
]

_QUERY_FIELDS = ("vertex", "k", "method", "cohesion", "limit", "min_size")


def canonical_cohesion(cohesion: object) -> Union[str, CohesionModel]:
    """The hashable canonical form of a cohesion argument.

    Registered models (given by name, class or instance) collapse to their
    registry name, so ``"k-core"`` and ``KCoreCohesion`` share cache
    entries and travel over the wire. An unregistered (typically
    stateful/parametrised, e.g. ``FractionalKCoreCohesion(0.8)``) model is
    kept as the instance itself and keyed by identity: only that exact
    object can represent its parameters. Raises on unknown names.
    """
    model = get_cohesion(cohesion)
    try:
        registered = type(get_cohesion(model.name)) is type(model)
    except InvalidInputError:
        registered = False
    return model.name if registered else model


def cohesion_name(cohesion: Optional[object]) -> str:
    """The canonical registry name of a cohesion argument.

    ``None`` is the paper default (``k-core``). Unregistered model
    *instances* fall back to their ``repr`` — stable enough for reporting,
    but not serialisable (see :meth:`Query.to_dict`).
    """
    if cohesion is None:
        return "k-core"
    canonical = canonical_cohesion(cohesion)
    return canonical if isinstance(canonical, str) else repr(canonical)


@dataclass(frozen=True)
class Query:
    """An immutable, validated PCS request.

    Attributes
    ----------
    vertex:
        The query vertex (must be set; membership in a concrete graph is
        checked at serve time).
    k:
        Structure-cohesiveness parameter, or ``None`` for the serving
        default (:data:`DEFAULT_K`).
    method:
        One of :data:`~repro.core.search.ALL_METHODS` (stored in canonical
        casing), or ``None`` to let the planner choose.
    cohesion:
        A registered model name, a :class:`~repro.core.cohesion.CohesionModel`
        instance/class, or ``None`` for the paper's k-core default.
    limit:
        Return at most this many communities (``None`` = all). A
        post-filter: does not affect :meth:`cache_key`.
    min_size:
        Drop communities with fewer member vertices (default 1 = keep all).
        Also a post-filter.
    """

    vertex: Vertex
    k: Optional[int] = None
    method: Optional[str] = None
    cohesion: Optional[object] = None
    limit: Optional[int] = None
    min_size: int = 1

    def __post_init__(self) -> None:
        if self.vertex is None:
            raise InvalidInputError("Query needs a query vertex (got None)")
        if isinstance(self.vertex, bool):
            # True == 1: it would serve (and share the cache entry of) vertex 1.
            raise InvalidInputError(f"vertex must not be a boolean, got {self.vertex!r}")
        try:
            hash(self.vertex)
        except TypeError:
            raise InvalidInputError(
                f"vertex must be hashable, got {type(self.vertex).__name__}"
            ) from None
        if self.k is not None:
            if not isinstance(self.k, int) or isinstance(self.k, bool):
                raise InvalidInputError(f"k must be an int, got {self.k!r}")
            if self.k < 0:
                raise InvalidInputError(f"k must be non-negative, got {self.k}")
        if self.method is not None:
            if not isinstance(self.method, str):
                raise InvalidInputError(f"method must be a string, got {self.method!r}")
            object.__setattr__(self, "method", normalize_method(self.method))
        if self.cohesion is not None:
            # Like `method`: Query("D", cohesion=KCoreCohesion()) equals
            # Query("D", cohesion="k-core") and survives to_dict/from_dict
            # unchanged (unregistered instances are rejected by to_dict).
            object.__setattr__(self, "cohesion", canonical_cohesion(self.cohesion))
        if self.limit is not None:
            if not isinstance(self.limit, int) or isinstance(self.limit, bool):
                raise InvalidInputError(f"limit must be an int, got {self.limit!r}")
            if self.limit < 1:
                raise InvalidInputError(f"limit must be >= 1, got {self.limit}")
        if not isinstance(self.min_size, int) or isinstance(self.min_size, bool):
            raise InvalidInputError(f"min_size must be an int, got {self.min_size!r}")
        if self.min_size < 1:
            raise InvalidInputError(f"min_size must be >= 1, got {self.min_size}")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def vertex_(cls, vertex: Vertex) -> "QueryBuilder":
        """Start a fluent build: ``Query.vertex("D").k(2).build()``.

        (Exposed as :meth:`Query.vertex` via ``__init_subclass__``-free
        aliasing below; the trailing underscore avoids shadowing the
        ``vertex`` field inside the class body.)
        """
        return QueryBuilder(cls(vertex=vertex))

    def replace(self, **changes) -> "Query":
        """A copy with ``changes`` applied (validated like a fresh Query)."""
        unknown = set(changes) - set(_QUERY_FIELDS)
        if unknown:
            raise InvalidInputError(f"unknown Query fields: {sorted(unknown)}")
        return dataclasses.replace(self, **changes)

    @classmethod
    def coerce(cls, item: object) -> "Query":
        """Build a Query from any accepted request shape.

        Accepts a :class:`Query`, a :class:`QueryBuilder`, a mapping
        (unknown keys rejected), a ``(vertex, k[, method[, cohesion]])``
        tuple/list, or a bare vertex.
        """
        if isinstance(item, cls):
            return item
        if isinstance(item, QueryBuilder):
            return item.build()
        if isinstance(item, dict):
            return cls.from_dict(item)
        if isinstance(item, (tuple, list)):
            if not 1 <= len(item) <= 4:
                raise InvalidInputError(
                    f"Query tuple needs 1-4 fields (vertex, k, method, cohesion), "
                    f"got {len(item)}"
                )
            return cls(*item)
        return cls(vertex=item)

    # ------------------------------------------------------------------
    # canonical forms
    # ------------------------------------------------------------------
    def resolve(
        self,
        default_k: int = DEFAULT_K,
        default_method: Optional[str] = DEFAULT_METHOD,
    ) -> "Query":
        """This request with ``k`` and ``method`` defaults filled in.

        A ``None`` ``k``/``method`` takes the given default (a ``None``
        ``default_method`` leaves the method open for the planner, as the
        batch-file parser does). ``cohesion`` is never filled: ``None``
        already means the paper's k-core. Returns ``self`` when nothing was
        missing, so resolving an already-resolved request is free.
        """
        k = default_k if self.k is None else self.k
        method = default_method if self.method is None else self.method
        if k is self.k and method is self.method:
            return self
        return Query(self.vertex, k, method, self.cohesion, self.limit, self.min_size)

    def cache_key(
        self, default_k: int = DEFAULT_K, default_method: str = DEFAULT_METHOD
    ) -> Tuple:
        """The canonical request key ``(vertex, k, method, cohesion)``.

        *The* definition of "same request" for the whole stack:
        :meth:`repro.engine.explorer.CommunityExplorer.resolve_key` and
        :meth:`repro.api.CommunityService.cache_key` return exactly this
        tuple (with their session's ``default_k``), and the engine caches,
        dedups and executes on it. Two queries that must be answered by the
        same computation produce equal keys — ``None`` fields key like the
        defaults they resolve to (see :meth:`resolve`; a ``None`` cohesion
        keys as ``"k-core"``), cohesion is its registry name (an
        unregistered model instance is kept as the key component *itself*:
        its repr ignores instance state, so two differently-parametrised
        models must never collapse to one key), and the ``limit`` /
        ``min_size`` post-filters are excluded so every pagination of one
        result shares its entry.
        """
        return (
            self.vertex,
            default_k if self.k is None else self.k,
            self.method if self.method is not None else normalize_method(default_method),
            "k-core" if self.cohesion is None else self.cohesion,
        )

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-ready dict; lossless through :meth:`from_dict`.

        Raises :class:`~repro.errors.InvalidInputError` for cohesion model
        instances that are not in the registry — they carry state a name
        cannot represent, so they cannot travel over the wire. (Registered
        models were already canonicalised to their name at construction.)
        """
        if self.cohesion is not None and not isinstance(self.cohesion, str):
            raise InvalidInputError(
                f"cohesion {self.cohesion!r} is not a registered model and "
                "cannot be serialised; register it or pass a name"
            )
        return {
            "vertex": self.vertex,
            "k": self.k,
            "method": self.method,
            "cohesion": self.cohesion,
            "limit": self.limit,
            "min_size": self.min_size,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Query":
        """Inverse of :meth:`to_dict`.

        Unknown keys raise — a misspelt field must never silently fall back
        to a default.
        """
        if not isinstance(payload, dict):
            raise InvalidInputError(f"Query.from_dict needs a mapping, got {payload!r}")
        data = dict(payload)
        unknown = set(data) - set(_QUERY_FIELDS)
        if unknown:
            raise InvalidInputError(f"unknown Query fields: {sorted(unknown)}")
        if "vertex" not in data:
            raise InvalidInputError("Query mapping needs a 'vertex' field")
        if data.get("min_size") is None:
            data.pop("min_size", None)
        return cls(**data)


# The class body cannot define both the ``vertex`` field and a ``vertex``
# classmethod; alias the builder entry point onto the finished class instead.
Query.vertex = Query.vertex_  # type: ignore[assignment]


class QueryBuilder:
    """Fluent construction of :class:`Query` instances.

    Each step validates eagerly and returns a *new* builder (builders are
    as immutable as the queries they wrap), so prefixes can be shared::

        base = Query.vertex("D").k(2)
        fast, themed = base.method("adv-P").build(), base.cohesion("k-truss").build()

    Everything that accepts a :class:`Query` also accepts an unfinished
    builder (via :meth:`Query.coerce`), so trailing ``.build()`` is
    optional at call sites.
    """

    __slots__ = ("_query",)

    def __init__(self, query: Query) -> None:
        self._query = query

    def k(self, k: int) -> "QueryBuilder":
        return QueryBuilder(self._query.replace(k=k))

    def method(self, method: Optional[str]) -> "QueryBuilder":
        return QueryBuilder(self._query.replace(method=method))

    def cohesion(self, cohesion: Optional[Union[str, CohesionModel]]) -> "QueryBuilder":
        return QueryBuilder(self._query.replace(cohesion=cohesion))

    def limit(self, limit: Optional[int]) -> "QueryBuilder":
        return QueryBuilder(self._query.replace(limit=limit))

    def min_size(self, min_size: int) -> "QueryBuilder":
        return QueryBuilder(self._query.replace(min_size=min_size))

    def build(self) -> Query:
        return self._query

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryBuilder({self._query!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QueryBuilder):
            return self._query == other._query
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("QueryBuilder", self._query))
