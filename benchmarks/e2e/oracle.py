"""The independent recompute every served answer is checked against.

Answers come from the server's ``adv-P`` search over the CP-tree index and
the CSR kernels. The oracle shares neither: it runs the index-free
``basic`` algorithm on the object-graph backend, over its own copy of the
graph that it moves forward by replaying the same edits the server was
sent (the shadow replay). Two answers agree when they hold the same
``{subtree node set -> vertex set}`` map, the form the repository's own
cross-algorithm equivalence tests compare.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional

from repro.core.search import pcs
from repro.engine.updates import GraphUpdate, apply_update
from repro.graph.csr import backend_override

Answer = Dict[FrozenSet[int], FrozenSet[object]]


def envelope_answer(envelope: dict) -> Answer:
    """The comparison form of one ``QueryResponse`` wire envelope."""
    return {
        frozenset(c["subtree_nodes"]): frozenset(c["vertices"])
        for c in envelope["communities"]
    }


class Oracle:
    """``basic``/object recompute over a shadow copy of the served graph."""

    def __init__(self, pg) -> None:
        self.pg = pg

    @property
    def version(self) -> int:
        return self.pg.version

    def answer(self, vertex, k: int) -> Answer:
        with backend_override("object"):
            result = pcs(self.pg, vertex, k, method="basic")
        return {c.subtree.nodes: c.vertices for c in result.communities}

    def members(self, vertex, k: int) -> FrozenSet[object]:
        """The union of the answer's communities (what a subscription watches)."""
        out: set = set()
        for vertices in self.answer(vertex, k).values():
            out |= vertices
        return frozenset(out)

    def apply(self, updates: Iterable[dict]) -> None:
        """Replay one acknowledged update batch onto the shadow graph."""
        for item in updates:
            apply_update(self.pg, GraphUpdate.coerce(item))

    def mismatch(self, envelope: dict, vertex, k: int,
                 expected: Optional[Answer] = None) -> Optional[str]:
        """Why ``envelope`` is wrong for ``(vertex, k)`` now, or ``None``."""
        if envelope.get("graph_version") != self.version:
            return (f"graph_version {envelope.get('graph_version')} != "
                    f"shadow version {self.version}")
        if envelope["query"]["vertex"] != vertex or envelope["k"] != k:
            return "envelope answers a different query"
        want = self.answer(vertex, k) if expected is None else expected
        if envelope_answer(envelope) != want:
            return (f"{len(envelope['communities'])} served communities differ "
                    f"from the {len(want)} recomputed for vertex {vertex!r}, k={k}")
        if envelope["total_communities"] != len(want):
            return "total_communities disagrees with the community list"
        return None
