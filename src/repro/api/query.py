"""Public import path of :class:`Query` and :class:`QueryBuilder` (a re-export).

The request type lives in :mod:`repro.engine.query` — the engine caches,
dedups and executes on it, and the layer DAG lets the api package import
the engine but not the reverse. This module re-exports the same objects,
so ``from repro.api.query import Query`` and ``repro.api.Query`` are that
one class, not a copy.
"""

from __future__ import annotations

from repro.engine.query import (
    DEFAULT_K,
    DEFAULT_METHOD,
    Query,
    QueryBuilder,
    cohesion_name,
    normalize_method,
)

__all__ = [
    "DEFAULT_K",
    "DEFAULT_METHOD",
    "Query",
    "QueryBuilder",
    "cohesion_name",
    "normalize_method",
]
