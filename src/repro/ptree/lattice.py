"""The subtree lattice (paper §4.3.2, Fig. 6).

MARGIN-style border search navigates the lattice whose elements are the
induced rooted subtrees of the query P-tree T(q), ordered by inclusion. Level
i holds the subtrees with i nodes; the bottom is the empty tree. Following
MARGIN's vocabulary (which the paper adopts):

* a **child** of subtree T is a subtree of T(q) obtained by *adding* one node
  to T (one level up);
* a **parent** of T is obtained by *removing* one subtree-leaf (one level
  down).

Unlike MARGIN we never materialise the lattice — parents and children are
generated on demand from the CP-tree/taxonomy structure, exactly as the paper
highlights in its list of modifications.

The module also provides :func:`common_child`, the constructive witness of
the Upper-◇ property (Proposition 2): two children P∪{e₁}, P∪{e₂} of P always
share the child P∪{e₁,e₂}.
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.errors import InvalidInputError
from repro.ptree.enumeration import addable_nodes
from repro.ptree.taxonomy import Taxonomy

NodeSet = FrozenSet[int]


def children_of(taxonomy: Taxonomy, base: NodeSet, subtree: NodeSet) -> List[NodeSet]:
    """All lattice children of ``subtree`` within ``base`` (add one node)."""
    return [subtree | {x} for x in addable_nodes(taxonomy, base, subtree)]


def subtree_leaves(taxonomy: Taxonomy, subtree: NodeSet) -> List[int]:
    """Nodes of ``subtree`` having no child inside ``subtree``.

    These are the nodes whose removal keeps the set ancestor-closed.
    """
    return [
        x
        for x in subtree
        if not any(c in subtree for c in taxonomy.children(x))
    ]


def parents_of(taxonomy: Taxonomy, subtree: NodeSet) -> List[NodeSet]:
    """All lattice parents of ``subtree`` (remove one subtree-leaf)."""
    return [subtree - {x} for x in subtree_leaves(taxonomy, subtree)]


def common_child(
    taxonomy: Taxonomy, base: NodeSet, first: NodeSet, second: NodeSet
) -> NodeSet:
    """The Upper-◇ witness: the common lattice child of two sibling subtrees.

    ``first`` and ``second`` must be distinct children of the same parent
    (they differ from each other by exactly one node each); their union is
    then a child of both. Raises when the inputs are not siblings or the
    union escapes ``base``.
    """
    union = first | second
    if len(union) != len(first) + 1 or len(union) != len(second) + 1:
        raise InvalidInputError(
            "common_child expects two distinct children of the same parent"
        )
    if not union <= base:
        raise InvalidInputError("common child escapes the base P-tree")
    return union


def is_valid_subtree(taxonomy: Taxonomy, base: NodeSet, subtree: NodeSet) -> bool:
    """Whether ``subtree`` is an ancestor-closed subset of ``base``."""
    return subtree <= base and taxonomy.is_ancestor_closed(subtree)
