"""Moving profiled graphs and PCS results across process boundaries.

The process-parallel layer ships three things:

* the **profiled graph**, once per worker lifetime (:func:`ship_graph` /
  :func:`unship_graph`) — the worker gets a self-contained snapshot:
  topology, taxonomy, label map and the version the snapshot reflects.
  The parent's CP-tree index, P-tree cache and update journal are *not*
  shipped; every worker builds and owns its indexes locally (they are
  cheap relative to their amortised use, and per-worker construction is
  exactly what the parallel index build exploits);
* **query keys**, per batch — plain tuples, nothing to do;
* **PCS results**, back from the workers. Results carry
  :class:`~repro.ptree.ptree.PTree` subtrees anchored to the *worker's*
  taxonomy copy; :func:`reanchor_result` re-ties them to the parent's
  taxonomy instance so merged results are indistinguishable from locally
  computed ones (``PTree`` equality requires the same taxonomy object,
  and downstream code may feed subtrees back into taxonomy-checked APIs).
"""

from __future__ import annotations

import dataclasses

from repro.core.community import PCSResult
from repro.core.profiled_graph import ProfiledGraph
from repro.errors import InvalidInputError
from repro.ptree.ptree import PTree
from repro.ptree.taxonomy import Taxonomy
from repro.storage.snapshot import SnapshotError
from repro.storage.snapshot import decode_payload as snapshot_decode
from repro.storage.snapshot import encode_payload as snapshot_encode

#: Blob tag of the interned snapshot encoding (the only wire form).
_TAG_SNAPSHOT = b"S"


def ship_graph(pg: ProfiledGraph) -> bytes:
    """Serialise the serving-relevant state of ``pg`` for worker bootstrap.

    The blob decodes (:func:`unship_graph`) into a fresh
    :class:`~repro.core.profiled_graph.ProfiledGraph` carrying the same
    topology, taxonomy, labels and version — but no index, no P-tree cache
    and an empty journal, so the worker starts cold and builds exactly what
    it needs.

    The wire form is the interned binary encoding of
    :mod:`repro.storage.snapshot` (no header or digest — the pipe is
    trusted), so the wire form and the on-disk form can never disagree on
    graph semantics; decoding it in the worker also rebuilds the CSR view
    straight from the wire's sorted intern tables (see
    :mod:`repro.graph.csr`), so shard peels start on the flat backend
    without re-interning. The codec encodes int and str vertices (every
    bundled dataset); a graph it refuses raises
    :class:`~repro.errors.InvalidInputError` naming the offending vertex
    type when the fleet starts. A one-byte tag guards the decoder.
    """
    try:
        return _TAG_SNAPSHOT + snapshot_encode(pg)
    except SnapshotError as exc:
        raise InvalidInputError(
            f"cannot ship this graph to worker processes: {exc}"
        ) from exc


def unship_graph(blob: bytes) -> ProfiledGraph:
    """Inverse of :func:`ship_graph` (runs in the worker process)."""
    tag, payload = blob[:1], blob[1:]
    if tag != _TAG_SNAPSHOT:
        raise TypeError(f"unknown worker bootstrap blob tag {tag!r}")
    return snapshot_decode(payload, has_index=False)


def reanchor_result(result: PCSResult, taxonomy: Taxonomy) -> PCSResult:
    """Re-tie a worker-computed result's subtrees to the parent taxonomy.

    Unpickled results reference the worker's taxonomy *copy*; subtree node
    ids are identical, only the anchoring object differs. Rebuilds each
    community with a parent-anchored :class:`PTree` (node sets were
    validated at construction, so the copies skip the closure check) and
    returns the same :class:`PCSResult` mutated in place.
    """
    result.communities = [
        dataclasses.replace(
            community,
            subtree=PTree(taxonomy, community.subtree.nodes, _validated=True),
        )
        for community in result.communities
    ]
    return result
