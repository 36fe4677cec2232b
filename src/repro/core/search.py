"""Unified public entry point for PCS queries.

``pcs(pg, q, k)`` dispatches to one of the five algorithms the paper
evaluates (``basic``, ``incre``, ``adv-I``, ``adv-D``, ``adv-P``). All five
return identical community sets (verified by the equivalence test-suite);
they differ only in work performed, so ``adv-P`` — the paper's consistently
fastest method — is the default.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.advanced import advanced_query
from repro.core.basic import basic_query
from repro.core.closed import closed_query
from repro.core.cohesion import CohesionModel
from repro.core.community import PCSResult
from repro.core.incre import incre_query
from repro.core.profiled_graph import ProfiledGraph
from repro.core.protocol import Engine
from repro.errors import InvalidInputError
from repro.index.cptree import CPTree

Vertex = Hashable

#: The methods the paper evaluates, in its naming.
PCS_METHODS = ("basic", "incre", "adv-I", "adv-D", "adv-P")

#: All supported methods: the paper's five plus this library's
#: closure-jumping extension (see repro.core.closed).
ALL_METHODS = PCS_METHODS + ("closed",)

#: Every accepted spelling of a method name -> its canonical casing. Seeded
#: with the canonical spellings; other casings are memoised on first use
#: (the set of spellings seen in one process is tiny and error inputs are
#: never cached).
_METHOD_SPELLINGS = {m: m for m in ALL_METHODS}


def normalize_method(method: str) -> str:
    """Canonical casing for a method name (raises on unknown methods).

    The single canonicalisation point shared by :func:`pcs`, the engine and
    :class:`repro.api.Query` — one spelling table, one error message.
    """
    known = _METHOD_SPELLINGS.get(method)
    if known is not None:
        return known
    name = method.lower()
    for known in ALL_METHODS:
        if known.lower() == name:
            _METHOD_SPELLINGS[method] = known
            return known
    raise InvalidInputError(
        f"unknown PCS method {method!r}; expected one of {ALL_METHODS}"
    )


def pcs(
    pg: ProfiledGraph,
    q: Vertex,
    k: int,
    method: str = "adv-P",
    index: Optional[CPTree] = None,
    cohesion: Optional[CohesionModel] = None,
    engine: Optional[Engine] = None,
) -> PCSResult:
    """Profiled community search: all PCs of query vertex ``q`` (Problem 1).

    Parameters
    ----------
    pg:
        The profiled graph.
    q:
        Query vertex; must exist in ``pg``.
    k:
        Structure-cohesiveness parameter (minimum degree for the default
        k-core model).
    method:
        One of :data:`PCS_METHODS` (case-insensitive). Default ``adv-P``.
    index:
        Optional pre-built CP-tree (ignored by ``basic``); when omitted the
        index-based methods build/reuse ``pg.index()``.
    cohesion:
        Optional alternative structure model (``"k-truss"``, ``"k-clique"``
        or a :class:`~repro.core.cohesion.CohesionModel` instance).
    engine:
        Optional :class:`~repro.core.protocol.Engine` (canonically a
        :class:`~repro.engine.explorer.CommunityExplorer`). When given, the
        query is served through the engine — its cached indexes and LRU
        result cache — instead of dispatching directly; the engine must
        wrap ``pg`` (checked). ``index`` is ignored on this path (the
        engine owns index lifetime). An object that does not implement the
        protocol (``pg``/``explore``/``explore_many``/``stats``) is
        rejected with :class:`~repro.errors.InvalidInputError`.

    Returns
    -------
    PCSResult
        One :class:`~repro.core.community.ProfiledCommunity` per maximal
        feasible subtree of T(q), sorted deterministically.

    Examples
    --------
    >>> from repro.datasets import fig1_profiled_graph
    >>> pg = fig1_profiled_graph()
    >>> sorted(len(c.vertices) for c in pcs(pg, "D", 2))
    [3, 3]
    """
    if k < 0:
        raise InvalidInputError(f"k must be non-negative, got {k}")
    if engine is not None:
        # Engine-aware path: serve through the session's index + result
        # cache.
        if not isinstance(engine, Engine):
            raise InvalidInputError(
                f"engine {engine!r} does not implement the repro.api.Engine "
                "protocol (pg/explore/explore_many/stats)"
            )
        if engine.pg is not pg:
            raise InvalidInputError(
                "engine serves a different ProfiledGraph than the one passed to pcs()"
            )
        return engine.explore(q, k, method=method, cohesion=cohesion)
    name = normalize_method(method).lower()
    if name == "basic":
        return basic_query(pg, q, k, cohesion=cohesion)
    if name == "incre":
        return incre_query(pg, q, k, index=index, cohesion=cohesion)
    if name in ("adv-i", "adv-d", "adv-p"):
        return advanced_query(
            pg, q, k, find=name[-1].upper(), index=index, cohesion=cohesion
        )
    # normalize_method makes the remaining case exhaustive.
    if index is None:
        index = pg.index()
    return closed_query(pg, q, k, index=index, cohesion=cohesion)
