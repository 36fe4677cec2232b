"""Compact binary on-disk snapshots of a profiled graph and its indexes.

A snapshot captures everything a serving process needs to come up warm:
the taxonomy, the topology, every vertex's (ancestor-closed) label set,
the graph ``version`` the bytes reflect, and — when the graph has a built
CP-tree — the per-label CL-tree structures, so a restarted server skips
both dataset construction *and* the O(|P| · m · α(n)) index build. The
expensive part of a CL-tree is the k-core peel; its *result* (the laminar
node tree plus anchored vertices) is small, so snapshots store that and
:meth:`~repro.index.cltree.CLTree.from_arrays` reassembles the index in
linear time on load.

Layout (version 1, little-endian throughout)::

    magic    8 bytes   b"REPROSNP"
    version  u16       format version; loaders refuse versions they
                       don't know (bump it on any byte-level change)
    flags    u16       bit 0: an index section follows the graph section
                       bit 1: a subscription section comes last
    digest   32 bytes  SHA-256 over the payload bytes
    length   u64       payload length in bytes
    payload  ...       graph section [+ index section] [+ subscriptions]

The payload interns vertices: the vertex table lists every vertex once in
a canonical order (ints ascending, then strings ascending), and every
other section refers to vertices by their u32 position in that table.
Adjacency is a sorted flat array of ``(u, v)`` intern-id pairs; label
sets are sorted flat arrays of taxonomy node ids. Because every section
is emitted in sorted canonical order, equal graph states produce byte-
identical snapshots regardless of Python hash randomisation — which is
what makes the SHA-256 digest meaningful and lets CI pin a golden file
(``tests/data/snapshot_v1.bin``) against silent format drift.

The subscription section is a durable server's standing queries at the
checkpoint: a u32 byte length, then one compact JSON array with an entry
per subscription (the :mod:`repro.subscribe` entry that carries its head
and retained window — plain JSON this package does not interpret). A
checkpoint with no live subscription writes neither the flag nor the
section, so its bytes are exactly those of a graph-only snapshot.

The same image (:func:`snapshot_bytes` / :func:`load_snapshot_bytes`) is
what crosses every process boundary — replica bootstrap over HTTP, which
:func:`write_snapshot_bytes` installs as shipped, and worker bootstrap in
:mod:`repro.parallel` — so no two serialisation paths can disagree on
graph semantics.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.profiled_graph import ProfiledGraph
from repro.errors import InvalidInputError, ReproError
from repro.graph.csr import CSRGraph, active_backend
from repro.graph.graph import Graph
from repro.index.cltree import CLTree
from repro.index.cptree import CPTree
from repro.ptree.taxonomy import ROOT, Taxonomy

Vertex = Hashable
PathLike = Union[str, Path]

#: File magic: 8 bytes at offset 0 of every snapshot.
MAGIC = b"REPROSNP"
#: Current on-disk format version. Any byte-level change to the encoding
#: MUST bump this (the golden-file CI gate enforces it).
FORMAT_VERSION = 1
#: Header flag: the payload carries an index section after the graph.
FLAG_HAS_INDEX = 1
#: Header flag: the payload ends with a subscription section.
FLAG_HAS_SUBSCRIPTIONS = 2

_HEADER = struct.Struct("<8sHH32sQ")
#: Sentinel parent index marking a CL-tree root in the index section.
_NO_PARENT = 0xFFFFFFFF
#: The head of one CL-tree row: core, parent index, anchored-id count.
_CLNODE_ROW = struct.Struct("<iII")

_BIG_ENDIAN = sys.byteorder == "big"


class SnapshotError(ReproError):
    """A snapshot could not be encoded, decoded or verified."""


class SnapshotVersionError(SnapshotError):
    """The snapshot declares a format version this build does not know."""


class SnapshotCorruptError(SnapshotError):
    """The snapshot bytes fail structural or digest verification."""


@dataclass(frozen=True)
class SnapshotInfo:
    """Header-level description of one snapshot (returned by save/verify)."""

    #: On-disk format version from the header.
    format_version: int
    #: Hex SHA-256 of the payload bytes.
    digest: str
    #: Graph ``version`` the snapshot reflects.
    graph_version: int
    num_vertices: int
    num_edges: int
    taxonomy_nodes: int
    #: Per-label CL-trees stored in the index section (0 when none).
    index_labels: int
    #: Whether an index section is present.
    has_index: bool
    #: Payload size in bytes (file size minus the 52-byte header).
    payload_bytes: int

    def to_dict(self) -> dict:
        """A JSON-ready mapping (used by ``repro snapshot --info``)."""
        return {
            "format_version": self.format_version,
            "digest": self.digest,
            "graph_version": self.graph_version,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "taxonomy_nodes": self.taxonomy_nodes,
            "index_labels": self.index_labels,
            "has_index": self.has_index,
            "payload_bytes": self.payload_bytes,
        }


# ----------------------------------------------------------------------
# primitive writers/readers
# ----------------------------------------------------------------------
class _Writer:
    """Append-only little-endian buffer with the format's primitives."""

    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def u8(self, n: int) -> None:
        self.buf += struct.pack("<B", n)

    def u32(self, n: int) -> None:
        self.buf += struct.pack("<I", n)

    def u64(self, n: int) -> None:
        self.buf += struct.pack("<Q", n)

    def i32(self, n: int) -> None:
        self.buf += struct.pack("<i", n)

    def i64(self, n: int) -> None:
        self.buf += struct.pack("<q", n)

    def text(self, s: str) -> None:
        raw = s.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise SnapshotError(f"string too long to encode ({len(raw)} bytes)")
        self.buf += struct.pack("<H", len(raw))
        self.buf += raw

    def u32_array(self, values) -> None:
        arr = array("I", values)
        if _BIG_ENDIAN:  # pragma: no cover - non-LE platforms
            arr.byteswap()
        self.u32(len(arr))
        self.buf += arr.tobytes()

    def i32_array(self, values) -> None:
        arr = array("i", values)
        if _BIG_ENDIAN:  # pragma: no cover - non-LE platforms
            arr.byteswap()
        self.u32(len(arr))
        self.buf += arr.tobytes()


class _Reader:
    """Sequential reader over one payload; raises on truncation."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise SnapshotCorruptError(
                f"payload truncated at byte {self.pos} (wanted {n} more)"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def i32(self) -> int:
        return struct.unpack("<i", self._take(4))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self._take(8))[0]

    def text(self) -> str:
        length = struct.unpack("<H", self._take(2))[0]
        try:
            return self._take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotCorruptError(f"string is not UTF-8: {exc}") from None

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self._take(fmt.size))

    def u32_array(self, length: Optional[int] = None) -> array:
        """``length`` u32s; by default the length is read first."""
        if length is None:
            length = self.u32()
        arr = array("I")
        arr.frombytes(self._take(4 * length))
        if _BIG_ENDIAN:  # pragma: no cover - non-LE platforms
            arr.byteswap()
        return arr

    def i32_array(self) -> array:
        length = self.u32()
        arr = array("i")
        arr.frombytes(self._take(4 * length))
        if _BIG_ENDIAN:  # pragma: no cover - non-LE platforms
            arr.byteswap()
        return arr

    def done(self) -> bool:
        return self.pos == len(self.data)


# ----------------------------------------------------------------------
# payload encoding
# ----------------------------------------------------------------------
def _canonical_vertices(pg: ProfiledGraph) -> List[Vertex]:
    """Every vertex once, in the format's canonical (deterministic) order."""
    ints: List[int] = []
    strs: List[str] = []
    for v in pg.vertices():
        if type(v) is int:
            ints.append(v)
        elif type(v) is str:
            strs.append(v)
        else:
            raise SnapshotError(
                f"snapshot encoding supports int/str vertices, got {type(v).__name__}"
            )
    ints.sort()
    strs.sort()
    return ints + strs


def _encode_graph(w: _Writer, pg: ProfiledGraph, order: List[Vertex]) -> None:
    tax = pg.taxonomy
    # taxonomy: names then the parent array (parents precede children by
    # construction, which is what lets the decoder rebuild with add()).
    w.u32(tax.num_nodes)
    for node in range(tax.num_nodes):
        w.text(tax.name(node))
    w.i32_array(tax.parent(node) for node in range(tax.num_nodes))
    # vertex intern table
    w.u32(len(order))
    for v in order:
        if type(v) is int:
            w.u8(0)
            w.i64(v)
        else:
            w.u8(1)
            w.text(v)
    intern: Dict[Vertex, int] = {v: i for i, v in enumerate(order)}
    # adjacency: sorted (u, v) intern-id pairs, u < v
    pairs: List[Tuple[int, int]] = []
    adj = pg.graph.adjacency()
    for v, i in intern.items():
        for u in adj[v]:
            j = intern[u]
            if i < j:
                pairs.append((i, j))
    pairs.sort()
    flat = array("I")
    for i, j in pairs:
        flat.append(i)
        flat.append(j)
    w.u32_array(flat)
    # labels: per-vertex sorted closed sets as one counts + one flat array
    counts = array("I")
    labels_flat = array("I")
    for v in order:
        labs = sorted(pg.labels(v))
        counts.append(len(labs))
        labels_flat.extend(labs)
    w.u32_array(counts)
    w.u32_array(labels_flat)


def _canonical_clnode_rows(
    cltree: CLTree, intern: Dict[Vertex, int]
) -> List[Tuple[int, Optional[int], List[int]]]:
    """``(core, parent_index, sorted anchored intern ids)`` rows, preorder.

    Children are visited in a content-derived order (core level, then the
    smallest anchored id) so the emitted rows — and therefore the snapshot
    bytes — do not depend on set-iteration order.
    """

    def anchored(node) -> List[int]:
        return sorted(intern[v] for v in node.vertices)

    rows: List[Tuple[int, Optional[int], List[int]]] = []
    stack: List[Tuple[object, Optional[int]]] = [(cltree.root, None)]
    while stack:
        node, parent_index = stack.pop()
        mine = anchored(node)
        index = len(rows)
        rows.append((node.core, parent_index, mine))
        ordered = sorted(
            node.children,
            key=lambda c: (c.core, min((intern[v] for v in c.vertices), default=-1)),
        )
        for child in reversed(ordered):
            stack.append((child, index))
    return rows


def _encode_index(w: _Writer, index: CPTree, intern: Dict[Vertex, int]) -> None:
    labels = sorted(index.labels())
    w.u32(len(labels))
    for label in labels:
        w.u32(label)
        rows = _canonical_clnode_rows(index.node(label).cltree, intern)
        w.u32(len(rows))
        for core, parent_index, anchored in rows:
            w.i32(core)
            w.u32(_NO_PARENT if parent_index is None else parent_index)
            w.u32_array(anchored)


def encode_payload(
    pg: ProfiledGraph, index: Optional[CPTree] = None, subscriptions: Sequence[dict] = ()
) -> bytes:
    """Serialise ``pg`` (optionally its CP-tree and subscription heads).

    The header-free building block: :func:`snapshot_bytes` wraps the
    result in the magic/version/digest header. Equal graph states always
    encode to equal bytes (sections are emitted in canonical sorted order;
    the caller orders ``subscriptions``).
    """
    w = _Writer()
    order = _canonical_vertices(pg)
    w.u64(pg.version)
    w.u32(len(order))
    w.u32(pg.num_edges)
    _encode_graph(w, pg, order)
    if index is not None:
        intern = {v: i for i, v in enumerate(order)}
        _encode_index(w, index, intern)
    if subscriptions:
        raw = json.dumps(list(subscriptions), sort_keys=True, separators=(",", ":")).encode()
        w.u32(len(raw))
        w.buf += raw
    return bytes(w.buf)


def _decode_subscriptions(r: _Reader) -> Tuple[dict, ...]:
    raw = r._take(r.u32())
    try:
        entries = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise SnapshotCorruptError(f"subscription section is not JSON: {exc}") from None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise SnapshotCorruptError("subscription section is not a list of entries")
    return tuple(entries)


def decode_payload(
    data: bytes, has_index: Optional[bool] = None, has_subscriptions: bool = False
) -> Tuple[ProfiledGraph, Tuple[dict, ...]]:
    """Rebuild a profiled graph (and installed index) from payload bytes.

    The inverse of :func:`encode_payload`: returns the graph and the
    subscription section's entries (empty unless ``has_subscriptions``).
    ``has_index`` forces the index section to be present/absent; ``None``
    (default) reads it when there are bytes left after the graph section.
    The returned graph carries the snapshot's ``version``; when an index
    section is present the CP-tree is reassembled via
    :meth:`~repro.index.cltree.CLTree.from_arrays` +
    :meth:`~repro.index.cptree.CPTree.from_parts` and installed without
    re-peeling a single core. Bytes that do not describe a valid graph,
    index and section raise :class:`SnapshotCorruptError`, even under a
    valid digest.
    """
    r = _Reader(data)
    graph_version = r.u64()
    num_vertices = r.u32()
    num_edges = r.u32()
    # taxonomy
    num_tax = r.u32()
    names = [r.text() for _ in range(num_tax)]
    parents = r.i32_array()
    if len(parents) != num_tax or not names or parents[0] != -1:
        raise SnapshotCorruptError("malformed taxonomy section")
    tax = Taxonomy(root_name=names[ROOT])
    for node in range(1, num_tax):
        parent = parents[node]
        if not 0 <= parent < node:
            raise SnapshotCorruptError(
                "taxonomy parents must reference earlier nodes"
            )
        try:
            tax.add(names[node], parent=parent)
        except InvalidInputError as exc:
            raise SnapshotCorruptError(f"malformed taxonomy section: {exc}") from None
    # vertex table
    table_len = r.u32()
    if table_len != num_vertices:
        raise SnapshotCorruptError("vertex table length disagrees with header")
    order: List[Vertex] = []
    for _ in range(table_len):
        tag = r.u8()
        if tag == 0:
            order.append(r.i64())
        elif tag == 1:
            order.append(r.text())
        else:
            raise SnapshotCorruptError(f"unknown vertex tag {tag}")
    # adjacency
    flat = r.u32_array()
    if len(flat) != 2 * num_edges:
        raise SnapshotCorruptError("edge array length disagrees with header")
    # Build adjacency sets directly: the format guarantees sorted unique
    # intern pairs, so the per-edge membership checks of Graph.add_edge
    # are redundant here. A popcount check still catches self-loops and
    # duplicate pairs in a corrupt payload.
    adjacency: Dict[Vertex, set] = {v: set() for v in order}
    try:
        for pos in range(0, len(flat), 2):
            u, v = order[flat[pos]], order[flat[pos + 1]]
            adjacency[u].add(v)
            adjacency[v].add(u)
    except IndexError as exc:
        raise SnapshotCorruptError("edge endpoint outside the vertex table") from exc
    if (sum(len(neighbours) for neighbours in adjacency.values())
            != 2 * num_edges):
        raise SnapshotCorruptError("edge array holds duplicate or loop edges")
    graph = Graph.__new__(Graph)
    graph._adj = adjacency
    graph._num_edges = num_edges
    graph._rev = 0
    # The snapshot's intern table and sorted edge array are exactly the
    # inputs the CSR backend wants, so booting from disk pre-attaches the
    # flat view instead of re-interning on the first hot query.
    graph._csr = (
        CSRGraph.from_sorted_edges(order, flat)
        if active_backend() != "object"
        else None
    )
    # labels
    counts = r.u32_array()
    labels_flat = r.u32_array()
    if len(counts) != num_vertices or len(labels_flat) != sum(counts):
        raise SnapshotCorruptError("label arrays disagree with header")
    labels: Dict[Vertex, FrozenSet[int]] = {}
    cursor = 0
    empty: FrozenSet[int] = frozenset()
    # Real profiles repeat heavily (many vertices share a label set);
    # interning keeps the decoded graph as memory-compact as a pickled one.
    seen_sets: Dict[bytes, FrozenSet[int]] = {}
    for v, count in zip(order, counts):
        if count:
            chunk = labels_flat[cursor:cursor + count]
            cursor += count
            key = chunk.tobytes()
            cached = seen_sets.get(key)
            if cached is None:
                cached = seen_sets[key] = frozenset(chunk)
                if not tax.is_ancestor_closed(cached):
                    raise SnapshotCorruptError(
                        "label set outside the taxonomy or not ancestor-closed"
                    )
            labels[v] = cached
        else:
            labels[v] = empty
    pg = ProfiledGraph.from_labels(graph, tax, labels, graph_version)
    # index section
    if has_index is None:
        has_index = not r.done()
    if has_index:
        num_labels = r.u32()
        cltrees: Dict[int, CLTree] = {}
        for _ in range(num_labels):
            label = r.u32()
            num_nodes = r.u32()
            rows = []
            for _ in range(num_nodes):
                core, parent_raw, length = r.unpack(_CLNODE_ROW)
                ids = r.u32_array(length)
                # Row 0 is the root; every other row names an earlier one.
                if ((parent_raw == _NO_PARENT) != (not rows)
                        or rows and parent_raw >= len(rows)
                        or ids and max(ids) >= num_vertices):
                    raise SnapshotCorruptError("CL-tree row out of range")
                anchored = list(map(order.__getitem__, ids))
                rows.append(
                    (core, None if parent_raw == _NO_PARENT else parent_raw, anchored)
                )
            cltrees[label] = CLTree.from_arrays(rows)
        try:
            index = CPTree.from_parts(labels, tax, cltrees)
        except Exception as exc:
            raise SnapshotCorruptError(
                f"index section does not match the graph: {exc}"
            ) from exc
        pg.adopt_index(index)
    subscriptions = _decode_subscriptions(r) if has_subscriptions else ()
    if not r.done():
        raise SnapshotCorruptError(
            f"{len(data) - r.pos} trailing bytes after the last section"
        )
    return pg, subscriptions


# ----------------------------------------------------------------------
# files: header, digest, atomic writes
# ----------------------------------------------------------------------
def _pack_header(flags: int, payload: bytes) -> bytes:
    digest = hashlib.sha256(payload).digest()
    return _HEADER.pack(MAGIC, FORMAT_VERSION, flags, digest, len(payload))


def _split_file(raw: bytes, path: PathLike) -> Tuple[int, int, bytes, bytes]:
    """``(version, flags, digest, payload)`` after structural checks."""
    if len(raw) < _HEADER.size:
        raise SnapshotCorruptError(f"{path}: file shorter than the header")
    magic, version, flags, digest, length = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotCorruptError(f"{path}: not a repro snapshot (bad magic)")
    if version != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"{path}: format version {version} is not supported "
            f"(this build reads version {FORMAT_VERSION})"
        )
    payload = raw[_HEADER.size:]
    if len(payload) != length:
        raise SnapshotCorruptError(
            f"{path}: payload is {len(payload)} bytes, header says {length}"
        )
    return version, flags, digest, payload


def _info(
    version: int, flags: int, digest: bytes, payload: bytes, index_labels: int
) -> SnapshotInfo:
    r = _Reader(payload)
    graph_version = r.u64()
    num_vertices = r.u32()
    num_edges = r.u32()
    num_tax = r.u32()
    return SnapshotInfo(
        format_version=version,
        digest=digest.hex(),
        graph_version=graph_version,
        num_vertices=num_vertices,
        num_edges=num_edges,
        taxonomy_nodes=num_tax,
        index_labels=index_labels,
        has_index=bool(flags & FLAG_HAS_INDEX),
        payload_bytes=len(payload),
    )


def _stored_index_labels(flags: int, payload: bytes) -> int:
    """The index section's label count, found by hopping over the graph
    section: nothing is rebuilt."""
    if not flags & FLAG_HAS_INDEX:
        return 0
    r = _Reader(payload)
    r._take(16)  # graph version, vertex and edge counts
    for _ in range(r.u32()):  # taxonomy names
        r.text()
    r._take(4 * r.u32())  # taxonomy parents
    for _ in range(r.u32()):  # vertex table
        r.i64() if r.u8() == 0 else r.text()
    for _ in range(3):  # edges, per-vertex label counts, labels
        r._take(4 * r.u32())
    return r.u32()


def _fsync_directory(path: Path) -> None:
    try:  # pragma: no cover - platform-dependent
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def save_snapshot(
    pg: ProfiledGraph, path: PathLike, include_index: bool = True,
    subscriptions: Sequence[dict] = (),
) -> SnapshotInfo:
    """Write ``pg`` to ``path`` atomically; returns the snapshot's info.

    With ``include_index`` (default) and a built CP-tree, the index is
    persisted too (every edit was patched into it as it landed, so it is
    current); non-empty ``subscriptions`` become the subscription
    section. Written like :func:`write_snapshot_bytes`; the info's label
    count comes from the index that was encoded.
    """
    index_labels = pg.index().num_labels if include_index and pg.has_index() else 0
    raw = snapshot_bytes(pg, include_index=include_index, subscriptions=subscriptions)
    return _info(FORMAT_VERSION, *_write_file(raw, path), index_labels)


def write_snapshot_bytes(raw: bytes, path: PathLike) -> SnapshotInfo:
    """Write a complete snapshot image to ``path`` as is, atomically.

    The header and the SHA-256 digest are checked first (a
    :class:`SnapshotError` subclass on failure; nothing is written); the
    payload is not decoded. The bytes land in a same-directory temp file,
    are fsync'd and are renamed over ``path``, so a crash mid-write
    leaves the previous snapshot intact.
    """
    flags, digest, payload = _write_file(raw, path)
    return _info(
        FORMAT_VERSION, flags, digest, payload, _stored_index_labels(flags, payload)
    )


def _write_file(raw: bytes, path: PathLike) -> Tuple[int, bytes, bytes]:
    """:func:`write_snapshot_bytes` without the info: ``(flags, digest, payload)``."""
    target = Path(path)
    _, flags, digest, payload = _split_file(raw, target)
    if hashlib.sha256(payload).digest() != digest:
        raise SnapshotCorruptError(f"{target}: payload does not match its digest")
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(raw)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, target)
    _fsync_directory(target.parent)
    return flags, digest, payload


def snapshot_bytes(
    pg: ProfiledGraph, include_index: bool = True, subscriptions: Sequence[dict] = ()
) -> bytes:
    """The complete snapshot file image (header + payload) as bytes.

    Exactly what :func:`save_snapshot` writes, without touching disk —
    the replication writer ships this over HTTP (with its subscription
    section) and the worker pool as a process initializer argument
    (graph-only), so a replica's on-disk boot file and the shipped image
    are the same bytes by construction.
    """
    index = pg.index() if (include_index and pg.has_index()) else None
    payload = encode_payload(pg, index=index, subscriptions=subscriptions)
    flags = FLAG_HAS_INDEX if index is not None else 0
    if subscriptions:
        flags |= FLAG_HAS_SUBSCRIPTIONS
    return _pack_header(flags, payload) + payload


def _decode_file(flags: int, payload: bytes) -> Tuple[ProfiledGraph, Tuple[dict, ...]]:
    return decode_payload(
        payload, bool(flags & FLAG_HAS_INDEX), bool(flags & FLAG_HAS_SUBSCRIPTIONS)
    )


def _load(raw: bytes, path: PathLike, verify: bool) -> Tuple[ProfiledGraph, Tuple[dict, ...]]:
    _, flags, digest, payload = _split_file(raw, path)
    if verify and hashlib.sha256(payload).digest() != digest:
        raise SnapshotCorruptError(f"{path}: payload does not match its digest")
    return _decode_file(flags, payload)


def load_snapshot_bytes(raw: bytes, verify: bool = True) -> ProfiledGraph:
    """Decode a full snapshot image (header + payload) from memory.

    The in-memory mirror of :func:`load_snapshot`, sharing its structural
    checks: magic, format version, declared length and (with ``verify``)
    the SHA-256 digest. Used by replicas bootstrapping from a shipped
    snapshot before any bytes reach their own disk, and by pool workers.
    """
    return _load(raw, "<memory>", verify)[0]


def load_snapshot(path: PathLike, verify: bool = True) -> ProfiledGraph:
    """Read a snapshot back into a warm :class:`ProfiledGraph`.

    Refuses unknown format versions (:class:`SnapshotVersionError`) and,
    with ``verify`` (default), recomputes the SHA-256 over the payload
    and raises :class:`SnapshotCorruptError` on mismatch before any
    decoding happens. The returned graph carries the persisted
    ``version`` and — when the snapshot has an index section — a fully
    reassembled CP-tree, so the first query pays no index build.
    """
    return load_checkpoint(path, verify)[0]


def load_checkpoint(
    path: PathLike, verify: bool = True
) -> Tuple[ProfiledGraph, Tuple[dict, ...]]:
    """:func:`load_snapshot` plus the subscription section's entries.

    The entries come back as the JSON objects they were written as (an
    empty tuple when the snapshot has no section); a section that is not
    a JSON list of objects raises :class:`SnapshotCorruptError`.
    """
    return _load(Path(path).read_bytes(), path, verify)


def verify_digest(path: PathLike) -> SnapshotInfo:
    """Check ``path``'s digest and structure; returns its info on success.

    Reads the whole file, verifies magic, format version, declared length
    and SHA-256, and (for indexed snapshots) that the index section
    decodes against the graph. Raises a :class:`SnapshotError` subclass
    on any failure.
    """
    raw = Path(path).read_bytes()
    version, flags, digest, payload = _split_file(raw, path)
    if hashlib.sha256(payload).digest() != digest:
        raise SnapshotCorruptError(f"{path}: payload does not match its digest")
    index_labels = 0
    if flags & FLAG_HAS_INDEX:
        pg, _ = _decode_file(flags, payload)  # the decode is the index check
        index_labels = pg.index().num_labels
    return _info(version, flags, digest, payload, index_labels)
