"""Batched query engine with index reuse (the online-serving layer)."""

from repro.engine.batchfile import (
    coerce_query_vertices,
    load_queries,
    parse_queries,
    retype_vertex,
)
from repro.engine.cache import MISSING, CacheStats, LRUCache
from repro.engine.explorer import CommunityExplorer, EngineStats
from repro.engine.query import DEFAULT_K, DEFAULT_METHOD, Query, QueryBuilder
from repro.engine.updates import (
    UPDATE_OPS,
    GraphUpdate,
    UpdateReceipt,
    coerce_update_vertices,
    load_update_file,
    parse_update_text,
)

__all__ = [
    "CommunityExplorer",
    "EngineStats",
    "Query",
    "QueryBuilder",
    "DEFAULT_K",
    "DEFAULT_METHOD",
    "LRUCache",
    "CacheStats",
    "MISSING",
    "GraphUpdate",
    "UpdateReceipt",
    "UPDATE_OPS",
    "load_update_file",
    "parse_update_text",
    "coerce_update_vertices",
    "load_queries",
    "parse_queries",
    "coerce_query_vertices",
    "retype_vertex",
]
