"""P-trees: per-vertex hierarchical attribute trees (paper Definition 2).

A P-tree is an induced rooted subtree of the taxonomy (GP-tree), so it is
represented as an **ancestor-closed frozenset of taxonomy node ids** — see
DESIGN.md §2. Under this encoding the paper's tree relations become set
operations:

=====================================  =============================
Paper concept                          Set encoding
=====================================  =============================
induced rooted subtree  S ⊆ T          ``S.nodes <= T.nodes``
maximal common subtree  M({T₁…Tₙ})     ``T₁.nodes & … & Tₙ.nodes``
unified P-tree (GP-tree construction)  ``T₁.nodes | … | Tₙ.nodes``
=====================================  =============================

All operations preserve ancestor-closure, which the constructor verifies.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Tuple

from repro.errors import InvalidInputError, NotAncestorClosedError
from repro.ptree.taxonomy import ROOT, Taxonomy


class PTree:
    """An induced rooted subtree of a taxonomy, possibly empty.

    Instances are immutable and hashable; equality compares node sets (and
    requires the same taxonomy object).

    Parameters
    ----------
    taxonomy:
        The GP-tree the node ids refer to.
    nodes:
        An ancestor-closed set of node ids (the root must be present whenever
        the set is non-empty).
    _validated:
        Internal fast-path flag used by factory methods that already
        guarantee closure.
    """

    __slots__ = ("taxonomy", "nodes", "_hash")

    def __init__(
        self,
        taxonomy: Taxonomy,
        nodes: Iterable[int] = (),
        _validated: bool = False,
    ) -> None:
        node_set = frozenset(nodes)
        if not _validated and node_set and not taxonomy.is_ancestor_closed(node_set):
            raise NotAncestorClosedError(
                f"node set {sorted(node_set)!r} is not an ancestor-closed subtree"
            )
        object.__setattr__(self, "taxonomy", taxonomy)
        object.__setattr__(self, "nodes", node_set)
        object.__setattr__(self, "_hash", hash(node_set))

    def __setattr__(self, name: str, value: object) -> None:  # immutability
        raise AttributeError("PTree instances are immutable")

    def __reduce__(self):
        # Default slot-based pickling would call __setattr__ (blocked above);
        # reconstruct through the constructor instead. The node set was
        # validated when this instance was built, so the copy skips the
        # closure check. Needed by the process-parallel serving layer, which
        # ships PCS results (and their subtrees) between workers.
        return (PTree, (self.taxonomy, self.nodes, True))

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, taxonomy: Taxonomy) -> "PTree":
        """The empty tree (the bottom of the subtree lattice)."""
        return cls(taxonomy, (), _validated=True)

    @classmethod
    def root_only(cls, taxonomy: Taxonomy) -> "PTree":
        """The single-node tree {r}."""
        return cls(taxonomy, (ROOT,), _validated=True)

    @classmethod
    def from_nodes(cls, taxonomy: Taxonomy, nodes: Iterable[int]) -> "PTree":
        """Build from arbitrary nodes by taking the ancestor closure."""
        return cls(taxonomy, taxonomy.closure(nodes), _validated=True)

    @classmethod
    def from_names(cls, taxonomy: Taxonomy, names: Iterable[str]) -> "PTree":
        """Build from label names by taking the ancestor closure."""
        return cls.from_nodes(taxonomy, (taxonomy.id_of(n) for n in names))

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __bool__(self) -> bool:
        return bool(self.nodes)

    def __contains__(self, node: int) -> bool:
        return node in self.nodes

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PTree):
            return NotImplemented
        return self.taxonomy is other.taxonomy and self.nodes == other.nodes

    def __hash__(self) -> int:
        return self._hash

    def __le__(self, other: "PTree") -> bool:
        """``self`` is an induced rooted subtree of ``other`` (Definition 3)."""
        self._check_compatible(other)
        return self.nodes <= other.nodes

    def __lt__(self, other: "PTree") -> bool:
        self._check_compatible(other)
        return self.nodes < other.nodes

    # ------------------------------------------------------------------
    # lattice operations
    # ------------------------------------------------------------------
    def __or__(self, other: "PTree") -> "PTree":
        """Unified P-tree (set union — closure is preserved)."""
        self._check_compatible(other)
        return PTree(self.taxonomy, self.nodes | other.nodes, _validated=True)

    def __and__(self, other: "PTree") -> "PTree":
        """Maximal common subtree of two P-trees (set intersection)."""
        self._check_compatible(other)
        return PTree(self.taxonomy, self.nodes & other.nodes, _validated=True)

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def leaves(self) -> Tuple[int, ...]:
        """Nodes with no child inside this P-tree, sorted by preorder."""
        tax = self.taxonomy
        out = [
            n for n in self.nodes if not any(c in self.nodes for c in tax.children(n))
        ]
        out.sort(key=tax.preorder)
        return tuple(out)

    def children_in_tree(self, node: int) -> Tuple[int, ...]:
        """Children of ``node`` that belong to this P-tree, in sibling order."""
        return tuple(c for c in self.taxonomy.children(node) if c in self.nodes)

    def depth(self) -> int:
        """Number of levels L (max node depth + 1); 0 for the empty tree."""
        if not self.nodes:
            return 0
        return max(self.taxonomy.depth(n) for n in self.nodes) + 1

    def level_nodes(self, level: int) -> FrozenSet[int]:
        """Nodes at taxonomy depth ``level`` (root level is 0)."""
        tax = self.taxonomy
        return frozenset(n for n in self.nodes if tax.depth(n) == level)

    def levels(self) -> List[FrozenSet[int]]:
        """Per-level node sets, index 0 = root level."""
        return [self.level_nodes(d) for d in range(self.depth())]

    def names(self) -> FrozenSet[str]:
        """The label names in this P-tree (ACQ's flat keyword view)."""
        return frozenset(self.taxonomy.name(n) for n in self.nodes)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def pretty(self, indent: str = "  ") -> str:
        """Multi-line indented rendering, one label per line."""
        if not self.nodes:
            return "(empty P-tree)"
        tax = self.taxonomy
        lines: List[str] = []

        def walk(node: int, depth: int) -> None:
            lines.append(f"{indent * depth}{tax.name(node)}")
            for child in self.children_in_tree(node):
                walk(child, depth + 1)

        walk(ROOT, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if len(self.nodes) <= 6:
            inner = ",".join(sorted(self.taxonomy.name(n) for n in self.nodes))
            return f"PTree({{{inner}}})"
        return f"PTree(|nodes|={len(self.nodes)})"

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "PTree") -> None:
        if self.taxonomy is not other.taxonomy:
            raise InvalidInputError(
                "cannot combine P-trees anchored to different taxonomies"
            )
