"""Result types for PCS queries."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import FrozenSet, Hashable, Iterator, List, Tuple

from repro.ptree.ptree import PTree

Vertex = Hashable


@dataclass(frozen=True)
class ProfiledCommunity:
    """One profiled community (PC): a vertex set plus its shared subtree.

    Attributes
    ----------
    query:
        The query vertex q the community was searched for.
    k:
        The structure-cohesiveness parameter.
    vertices:
        Community members; always contains ``query``.
    subtree:
        The maximal feasible subtree T with ``vertices == Gk[T]``. For
        maximal subtrees this equals the maximal common subtree M(Gq) of the
        members (checked in tests).
    """

    query: Vertex
    k: int
    vertices: FrozenSet[Vertex]
    subtree: PTree

    @property
    def size(self) -> int:
        """Number of member vertices."""
        return len(self.vertices)

    def __contains__(self, v: Vertex) -> bool:
        return v in self.vertices

    @cached_property
    def sorted_vertices(self) -> Tuple[Vertex, ...]:
        """Members ordered by ``repr``: the wire order and the result sort's
        tie-break, computed once per community."""
        return tuple(sorted(self.vertices, key=repr))

    def theme(self) -> FrozenSet[str]:
        """Label names of the shared subtree — the community's "theme"."""
        return self.subtree.names()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProfiledCommunity(q={self.query!r}, k={self.k}, "
            f"|V|={self.size}, |T|={len(self.subtree)})"
        )


@dataclass
class PCSResult:
    """The full answer of one PCS query plus bookkeeping.

    Iterable over its :class:`ProfiledCommunity` members, ordered by
    decreasing subtree size then decreasing community size (deterministic).
    """

    query: Vertex
    k: int
    method: str
    communities: List[ProfiledCommunity] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    num_verifications: int = 0

    def __iter__(self) -> Iterator[ProfiledCommunity]:
        return iter(self.communities)

    def __len__(self) -> int:
        return len(self.communities)

    def __bool__(self) -> bool:
        return bool(self.communities)

    def __getitem__(self, idx: int) -> ProfiledCommunity:
        return self.communities[idx]

    def subtrees(self) -> List[PTree]:
        """The maximal feasible subtrees, one per community."""
        return [c.subtree for c in self.communities]

    def vertex_sets(self) -> List[FrozenSet[Vertex]]:
        """The member sets, aligned with :meth:`subtrees`."""
        return [c.vertices for c in self.communities]

    def sort(self) -> "PCSResult":
        """Sort communities deterministically (in place); returns self."""
        if len(self.communities) > 1:  # the usual answer is one community: no keys to build
            self.communities.sort(
                key=lambda c: (-len(c.subtree), -c.size, tuple(map(repr, c.sorted_vertices)))
            )
        return self

    def summary(self) -> str:
        """One-line human summary."""
        sizes = ", ".join(f"|V|={c.size}/|T|={len(c.subtree)}" for c in self.communities)
        return (
            f"PCS(q={self.query!r}, k={self.k}, method={self.method}): "
            f"{len(self.communities)} communities [{sizes}] "
            f"in {self.elapsed_seconds * 1000:.2f} ms, "
            f"{self.num_verifications} verifications"
        )


def as_vertex_subtree_map(result: PCSResult) -> dict:
    """``{subtree node set → vertex frozenset}`` — canonical comparison form.

    Used by the cross-algorithm equivalence tests: two PCS algorithms agree
    iff these maps are equal.
    """
    return {c.subtree.nodes: c.vertices for c in result.communities}
