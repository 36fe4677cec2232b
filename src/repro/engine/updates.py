"""Graph-update specs and edit-file parsing for the mutation pipeline.

``repro update`` (and :meth:`~repro.engine.explorer.CommunityExplorer.apply_updates`)
consume :class:`GraphUpdate` items. Edit files come in two formats, decided
per line (``#`` comments and blank lines allowed):

* **plain text** — one edit per line::

      add-edge u v
      remove-edge u v
      add-vertex v [label,label,...]
      remove-vertex v
      set-profile v label,label,...

  Labels are taxonomy node ids (integers) or label names; an omitted or
  empty label list means an empty profile.

* **JSON lines** — one object per line, e.g.
  ``{"op": "add_edge", "u": 3, "v": 9}`` or
  ``{"op": "set_profile", "u": "D", "labels": ["ML", "AI"]}``.

Vertex tokens parsed from text are re-typed as ints when the target graph
uses int vertices (same coercion as the batch query CLI).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.profiled_graph import ProfiledGraph
from repro.errors import InvalidInputError, VertexNotFoundError

Vertex = Hashable

#: Supported ops (canonical, underscore form).
UPDATE_OPS = ("add_edge", "remove_edge", "add_vertex", "remove_vertex", "set_profile")

#: Ops that target a single vertex (``u``); the rest are edge ops.
_VERTEX_OPS = frozenset({"add_vertex", "remove_vertex", "set_profile"})


@dataclass(frozen=True)
class GraphUpdate:
    """One graph edit: ``(op, u[, v][, labels])``.

    ``u`` is the (first) vertex for every op; ``v`` is the second endpoint
    of edge ops; ``labels`` is the profile payload of ``add_vertex`` /
    ``set_profile`` (taxonomy node ids or label names).
    """

    op: str
    u: Vertex
    v: Optional[Vertex] = None
    labels: Optional[Sequence[object]] = None

    def __post_init__(self):
        if not isinstance(self.op, str):
            raise InvalidInputError(f"update op must be a string, got {self.op!r}")
        op = self.op.replace("-", "_").lower()
        if op not in UPDATE_OPS:
            raise InvalidInputError(
                f"unknown update op {self.op!r}; expected one of {UPDATE_OPS}"
            )
        object.__setattr__(self, "op", op)
        if op in _VERTEX_OPS:
            if self.v is not None:
                raise InvalidInputError(f"{op} takes a single vertex, got v={self.v!r}")
        elif self.v is None:
            raise InvalidInputError(f"{op} needs both endpoints (u, v)")
        # Vertex names are the snapshot codec's domain, so every applied
        # edit can be checkpointed.
        for vertex in (self.u,) if self.v is None else (self.u, self.v):
            if type(vertex) not in (int, str):
                raise InvalidInputError(
                    f"{op}: a vertex must be an int or a string, got {vertex!r}"
                )
        if self.labels is not None and not isinstance(self.labels, (list, tuple)):
            raise InvalidInputError(
                f"{op}: labels must be a list, got {type(self.labels).__name__}"
            )

    @classmethod
    def coerce(cls, item: Union["GraphUpdate", Tuple, dict]) -> "GraphUpdate":
        """Build an update from an update, a mapping, or an op tuple."""
        if isinstance(item, cls):
            return item
        if isinstance(item, dict):
            unknown = set(item) - {"op", "u", "v", "labels"}
            if unknown:
                raise InvalidInputError(f"unknown GraphUpdate fields: {sorted(unknown)}")
            if "op" not in item or "u" not in item:
                raise InvalidInputError("GraphUpdate mapping needs 'op' and 'u' fields")
            return cls(**item)
        if isinstance(item, (tuple, list)):
            if not 2 <= len(item) <= 4:
                raise InvalidInputError(
                    f"GraphUpdate tuple needs 2-4 fields (op, u[, v][, labels]), "
                    f"got {len(item)}"
                )
            op = str(item[0]).replace("-", "_").lower()
            if op in _VERTEX_OPS:
                labels = item[2] if len(item) > 2 else None
                if len(item) > 3:
                    raise InvalidInputError(f"{op} tuple takes (op, u[, labels])")
                return cls(op=op, u=item[1], labels=labels)
            if len(item) > 3:
                raise InvalidInputError(f"{op} tuple takes (op, u, v)")
            return cls(op=op, u=item[1], v=item[2] if len(item) > 2 else None)
        raise InvalidInputError(f"cannot interpret {item!r} as a GraphUpdate")

    def to_dict(self) -> dict:
        """A JSON-ready mapping; lossless through :meth:`coerce`.

        ``v``/``labels`` are omitted when unset, so the wire form matches
        what a hand-written edit file would say.
        """
        payload: dict = {"op": self.op, "u": self.u}
        if self.v is not None:
            payload["v"] = self.v
        if self.labels is not None:
            payload["labels"] = list(self.labels)
        return payload


@dataclass(frozen=True)
class UpdateReceipt:
    """Outcome of one :meth:`CommunityExplorer.apply_updates` batch."""

    #: Updates submitted.
    requested: int
    #: Updates that actually changed the graph (no-ops excluded).
    applied: int
    #: Graph version after the batch.
    version: int
    #: Per-label CL-trees this batch's edits touched, each patched as its
    #: edit landed (0 when no index was built).
    repaired_labels: int
    #: Wall-clock seconds spent applying the edits, index patches included.
    seconds: float

    def to_dict(self) -> dict:
        return {
            "requested": self.requested,
            "applied": self.applied,
            "version": self.version,
            "repaired_labels": self.repaired_labels,
            "seconds": self.seconds,
        }


def apply_update(pg: ProfiledGraph, update: "GraphUpdate") -> bool:
    """Apply one update to a profiled graph; True when the graph changed.

    The one applier: every effective update bumps ``pg.version`` by exactly
    one (what :func:`preview_updates` predicts).
    :meth:`~repro.engine.explorer.CommunityExplorer.apply_updates` calls it
    per op and layers locking, the receipt, hooks and stats on top.
    """
    op = update.op
    if op == "add_edge":
        return pg.add_edge(update.u, update.v)
    if op == "remove_edge":
        return pg.remove_edge(update.u, update.v)
    if op == "add_vertex":
        return pg.add_vertex(update.u, profile=update.labels or ())
    if op == "remove_vertex":
        pg.remove_vertex(update.u)
        return True
    if op == "set_profile":
        return pg.set_profile(update.u, update.labels or ())
    raise InvalidInputError(f"unknown update op {op!r}")  # pragma: no cover


def preview_updates(
    pg: ProfiledGraph, updates: Sequence[GraphUpdate]
) -> Tuple[int, int]:
    """``(effective, resulting_version)`` of applying ``updates`` to ``pg``.

    Pure — ``pg`` is never mutated. Simulates the batch against an overlay
    (vertex presence, edge presence, profiles) with exactly the semantics
    of :func:`apply_update`: ``add_edge`` on an existing edge is a no-op,
    ``remove_vertex`` of an unknown vertex raises, ``set_profile`` to the
    same closure is a no-op, and so on. Raises the same exception the real
    apply would (``VertexNotFoundError``, ``InvalidInputError``), so
    :meth:`~repro.engine.explorer.CommunityExplorer.apply_updates` refuses
    a bad batch before its first edit and a durable session before it
    logs the batch.
    """
    vstate: dict = {}
    pstate: dict = {}
    estate: dict = {}
    dead: Set[Vertex] = set()  # base edges of these vertices no longer count

    def present(x: Vertex) -> bool:
        if x in vstate:
            return vstate[x]
        return x in pg

    def prof(x: Vertex) -> FrozenSet[int]:
        if x in pstate:
            return pstate[x]
        return pg.labels(x)

    def edge_present(x: Vertex, y: Vertex) -> bool:
        key = (x, y) if repr(x) <= repr(y) else (y, x)
        if key in estate:
            return estate[key]
        if x in dead or y in dead:
            return False
        return pg.graph.has_edge(x, y)

    def set_edge(x: Vertex, y: Vertex, present_now: bool) -> None:
        key = (x, y) if repr(x) <= repr(y) else (y, x)
        estate[key] = present_now

    effective = 0
    for update in updates:
        op = update.op
        if op == "add_edge":
            u, v = update.u, update.v
            if u == v:
                raise InvalidInputError(f"self-loop on vertex {u!r} is not allowed")
            if edge_present(u, v):
                continue
            for w in (u, v):
                if not present(w):
                    vstate[w] = True
                    pstate[w] = frozenset()
            set_edge(u, v, True)
            effective += 1
        elif op == "remove_edge":
            if not edge_present(update.u, update.v):
                continue
            set_edge(update.u, update.v, False)
            effective += 1
        elif op == "add_vertex":
            closed = pg._coerce_profile(update.labels or (), validate=True)
            if present(update.u):
                continue
            vstate[update.u] = True
            pstate[update.u] = closed
            effective += 1
        elif op == "remove_vertex":
            v = update.u
            if not present(v):
                raise VertexNotFoundError(v)
            vstate[v] = False
            pstate[v] = frozenset()
            dead.add(v)
            for key in list(estate):
                if v in key:
                    estate[key] = False
            effective += 1
        elif op == "set_profile":
            v = update.u
            if not present(v):
                raise VertexNotFoundError(v)
            closed = pg._coerce_profile(update.labels or (), validate=True)
            if closed == prof(v):
                continue
            pstate[v] = closed
            effective += 1
        else:  # pragma: no cover - GraphUpdate rejects unknown ops
            raise InvalidInputError(f"unknown update op {op!r}")
    # repro-lint: disable=version-tagging -- every caller holds the mutation lock (apply_updates)
    return effective, pg.version + effective


def _parse_labels(token: str) -> List[object]:
    labels: List[object] = []
    for part in token.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            labels.append(int(part))
        except ValueError:
            labels.append(part)
    return labels


def parse_update_text(text: str) -> List[GraphUpdate]:
    """Parse edit-file contents into :class:`GraphUpdate` items."""
    updates: List[GraphUpdate] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line[0] == "{":
            try:
                item = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InvalidInputError(
                    f"edit file line {lineno} is not valid JSON: {exc}"
                ) from exc
            updates.append(GraphUpdate.coerce(item))
            continue
        parts = line.split()
        op = parts[0].replace("-", "_").lower()
        try:
            if op in _VERTEX_OPS:
                if op == "remove_vertex":
                    if len(parts) != 2:
                        raise InvalidInputError(f"{op} takes exactly one vertex")
                    updates.append(GraphUpdate(op=op, u=parts[1]))
                else:
                    if not 2 <= len(parts) <= 3:
                        raise InvalidInputError(f"{op} takes a vertex and a label list")
                    labels = _parse_labels(parts[2]) if len(parts) == 3 else []
                    updates.append(GraphUpdate(op=op, u=parts[1], labels=labels))
            else:
                if len(parts) != 3:
                    raise InvalidInputError(f"{op} takes exactly two endpoints")
                updates.append(GraphUpdate(op=op, u=parts[1], v=parts[2]))
        except InvalidInputError as exc:
            raise InvalidInputError(f"edit file line {lineno}: {exc}") from None
    return updates


def load_update_file(path: Union[str, Path]) -> List[GraphUpdate]:
    """Read and parse an edit file (see module docstring for formats)."""
    return parse_update_text(Path(path).read_text(encoding="utf-8"))


def coerce_update_vertices(
    pg: ProfiledGraph, updates: List[GraphUpdate]
) -> List[GraphUpdate]:
    """Re-type string vertices as ints where the graph uses int vertices.

    Mirrors the batch query CLI's coercion: text formats cannot distinguish
    ``"3"`` from ``3``. New vertices (``add_vertex`` / ``add_edge``
    endpoints not in the graph) are coerced when they *parse* as ints and
    the graph already uses int vertices, so grown graphs stay homogeneous.
    """
    int_vertices = any(isinstance(v, int) for v in pg.graph.vertices())

    def fix(x: Vertex) -> Vertex:
        if not isinstance(x, str):
            return x
        if x in pg:
            return x
        try:
            as_int = int(x)
        except ValueError:
            return x
        if as_int in pg or int_vertices:
            return as_int
        return x

    out: List[GraphUpdate] = []
    for upd in updates:
        u, v = fix(upd.u), fix(upd.v) if upd.v is not None else None
        if u is upd.u and v is upd.v:
            out.append(upd)
        else:
            out.append(replace(upd, u=u, v=v))
    return out
