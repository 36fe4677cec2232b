"""Query-file parsing and result serialisation for the batch CLI.

``repro batch`` reads queries from a file in any of three formats, decided
per file:

* **JSON** — a top-level list whose items are vertices, ``[q, k]``-style
  arrays, or ``{"vertex": ..., "k": ..., "method": ..., "cohesion": ...,
  "limit": ..., "min_size": ...}`` objects (unknown keys are rejected);
* **JSON lines** — one such item per line;
* **plain text** — one query vertex per line (``#`` comments allowed), all
  sharing the CLI-level ``--k``/``--method`` defaults.

Precedence: content that parses as one JSON document is always read as the
whole-file list form — so a file whose entire content is ``["E", 3]`` means
*two* queries (vertices ``"E"`` and ``3``), not one ``(q, k)`` pair. Use an
object line (``{"vertex": "E", "k": 3}``) for a single parametrised query;
``[q, k]``-style array lines are only distinguishable in multi-line files.

Parsing yields :class:`~repro.engine.query.Query` items
(:func:`parse_queries` / :func:`load_queries`); results serialise to plain
dicts via the :class:`repro.api.QueryResponse` envelope — no custom JSON
encoder needed downstream.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Hashable, List, Optional, Union

from repro.core.profiled_graph import ProfiledGraph
from repro.engine.query import Query
from repro.errors import InvalidInputError

Vertex = Hashable


def parse_queries(
    text: str, default_k: int = 6, default_method: Optional[str] = None
) -> List[Query]:
    """Parse query-file contents into :class:`repro.api.Query` items."""
    stripped = text.strip()
    if not stripped:
        return []
    if stripped[0] == "[":
        # Whole-file JSON list — but a JSON-lines file may also start with
        # an ``[q, k]``-style array item, so fall through to per-line
        # parsing when the file as a whole is not one JSON document.
        try:
            items = json.loads(stripped)
        except json.JSONDecodeError:
            items = None
        if items is not None:
            if not isinstance(items, list):
                raise InvalidInputError("JSON query file must hold a list")
            return [Query.coerce(i).resolve(default_k, default_method) for i in items]
    queries: List[Query] = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line[0] in "{[":
            try:
                item = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InvalidInputError(
                    f"query file line {lineno} is not valid JSON: {exc}"
                ) from exc
            queries.append(Query.coerce(item).resolve(default_k, default_method))
        else:
            queries.append(Query(vertex=line, k=default_k, method=default_method))
    return queries


def load_queries(
    path: Union[str, Path], default_k: int = 6, default_method: Optional[str] = None
) -> List[Query]:
    """Read and parse a query file (see module docstring for formats)."""
    return parse_queries(
        Path(path).read_text(encoding="utf-8"),
        default_k=default_k,
        default_method=default_method,
    )


def retype_vertex(pg: ProfiledGraph, q: Vertex) -> Vertex:
    """A text token as the graph types it: itself, or its ``int`` if only that is a vertex."""
    if isinstance(q, str) and q not in pg:
        try:
            as_int = int(q)
        except ValueError:
            return q
        if as_int in pg:
            return as_int
    return q


def coerce_query_vertices(pg: ProfiledGraph, queries: List[Query]) -> List[Query]:
    """Re-type string vertices as ints where the graph uses int vertices.

    Text formats cannot distinguish ``"3"`` from ``3``; mirror the single-
    query CLI's coercion so batch files work on integer-vertex datasets.
    """
    out: List[Query] = []
    for query in queries:
        q = retype_vertex(pg, query.vertex)
        out.append(query if q is query.vertex else query.replace(vertex=q))
    return out
