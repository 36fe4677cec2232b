"""Prometheus-style text rendering of the gateway's counters.

``GET /metrics`` answers in the Prometheus text exposition format
(version 0.0.4): ``# HELP`` / ``# TYPE`` comment pairs followed by
``name{labels} value`` samples. Only stdlib string formatting — no client
library — because the format is deliberately trivial and the repo is
dependency-free.

The metric set is assembled from the layers below the wire: engine serving
counters (:class:`~repro.engine.explorer.EngineStats`), result-cache
accounting (:class:`~repro.engine.cache.CacheStats`), graph shape/version,
coalescer batching counters, and the gateway's own per-endpoint request
counts. Names follow the Prometheus conventions: ``_total`` for
monotonically increasing counters, ``_seconds`` for durations, bare names
for gauges.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["render_metrics", "format_sample", "escape_label_value"]

#: (metric, type, help) for the engine/graph/coalescer/server families.
_METRICS_HELP: Tuple[Tuple[str, str, str], ...] = (
    ("repro_queries_served_total", "counter", "Queries executed by the engine (cache misses that ran)."),
    ("repro_batches_total", "counter", "Batches served through the engine."),
    ("repro_cache_hits_total", "counter", "Result-cache hits."),
    ("repro_cache_misses_total", "counter", "Result-cache misses."),
    ("repro_cache_evictions_total", "counter", "Result-cache LRU evictions."),
    ("repro_cache_invalidations_total", "counter", "Cached results dropped because the graph version moved."),
    ("repro_cache_size", "gauge", "Entries currently in the result cache."),
    ("repro_index_builds_total", "counter", "Full CP-tree index builds."),
    ("repro_index_build_seconds_total", "counter", "Seconds spent building indexes."),
    ("repro_updates_applied_total", "counter", "Effective graph edits applied through the engine."),
    ("repro_maintenance_seconds_total", "counter", "Seconds spent applying updates, index patches included."),
    ("repro_graph_version", "gauge", "Current graph version (monotonic per effective edit)."),
    ("repro_graph_vertices", "gauge", "Vertices in the served graph."),
    ("repro_graph_edges", "gauge", "Edges in the served graph."),
    ("repro_coalescer_submitted_total", "counter", "Requests admitted to the coalescer queue."),
    ("repro_coalescer_rejected_total", "counter", "Requests refused by admission control (HTTP 429)."),
    ("repro_coalescer_batches_total", "counter", "Coalesced batches dispatched to the service."),
    ("repro_coalescer_coalesced_requests_total", "counter", "Requests that shared a batch with at least one other."),
    ("repro_coalescer_queue_depth", "gauge", "Requests currently waiting in the coalescer queue."),
    ("repro_http_requests_total", "counter", "HTTP requests by endpoint and status code."),
    ("repro_server_uptime_seconds", "gauge", "Seconds since the gateway started."),
)


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format (\\, ", newline)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_sample(
    name: str, value: float, labels: Optional[Dict[str, str]] = None
) -> str:
    """One ``name{labels} value`` sample line."""
    label_part = ""
    if labels:
        inner = ",".join(
            f'{key}="{escape_label_value(str(val))}"'
            for key, val in sorted(labels.items())
        )
        label_part = "{" + inner + "}"
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, float) and value.is_integer():
        rendered = str(int(value))
    else:
        rendered = repr(value) if isinstance(value, float) else str(value)
    return f"{name}{label_part} {rendered}"


def render_metrics(
    engine_stats,
    graph_stats: Dict[str, float],
    coalescer_stats: Optional[Dict[str, float]],
    http_counts: Iterable[Tuple[Tuple[str, str, int], int]],
    uptime_seconds: float,
) -> str:
    """The full ``/metrics`` document as one text block.

    Parameters mirror the gateway's state: ``engine_stats`` is an
    :class:`~repro.engine.explorer.EngineStats` snapshot, ``graph_stats``
    has ``version``/``vertices``/``edges``, ``coalescer_stats`` is
    :meth:`~repro.server.coalescer.RequestCoalescer.stats` output (or
    ``None`` when coalescing is off), and ``http_counts`` yields
    ``((method, endpoint, status), count)`` pairs.
    """
    values: Dict[str, float] = {
        "repro_queries_served_total": engine_stats.queries_served,
        "repro_batches_total": engine_stats.batches,
        "repro_cache_hits_total": engine_stats.cache.hits,
        "repro_cache_misses_total": engine_stats.cache.misses,
        "repro_cache_evictions_total": engine_stats.cache.evictions,
        "repro_cache_invalidations_total": engine_stats.cache.invalidations,
        "repro_cache_size": engine_stats.cache.size,
        "repro_index_builds_total": engine_stats.index_builds,
        "repro_index_build_seconds_total": engine_stats.index_build_seconds,
        "repro_updates_applied_total": engine_stats.updates_applied,
        "repro_maintenance_seconds_total": engine_stats.maintenance_seconds,
        "repro_graph_version": graph_stats["version"],
        "repro_graph_vertices": graph_stats["vertices"],
        "repro_graph_edges": graph_stats["edges"],
        "repro_server_uptime_seconds": uptime_seconds,
    }
    if coalescer_stats is not None:
        values.update(
            {
                "repro_coalescer_submitted_total": coalescer_stats["submitted"],
                "repro_coalescer_rejected_total": coalescer_stats["rejected"],
                "repro_coalescer_batches_total": coalescer_stats["dispatched_batches"],
                "repro_coalescer_coalesced_requests_total": coalescer_stats[
                    "coalesced_requests"
                ],
                "repro_coalescer_queue_depth": coalescer_stats["depth"],
            }
        )

    lines: List[str] = []
    for name, mtype, help_text in _METRICS_HELP:
        if name == "repro_http_requests_total":
            samples = [
                format_sample(
                    name,
                    count,
                    {"method": method, "endpoint": endpoint, "status": str(status)},
                )
                for (method, endpoint, status), count in sorted(http_counts)
            ]
            if not samples:
                continue
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {mtype}")
            lines.extend(samples)
            continue
        if name not in values:
            continue  # coalescer family absent when coalescing is off
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        lines.append(format_sample(name, values[name]))
    return "\n".join(lines) + "\n"
