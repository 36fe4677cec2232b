"""P-tree substrate: taxonomy, P-trees, enumeration, lattice, edit distance."""

from repro.ptree.enumeration import (
    addable_nodes,
    count_subtrees,
    enumerate_subtrees,
    generate_subtrees,
    lemma1_bound,
    lemma1_recurrence,
    rightmost_extensions,
)
from repro.ptree.lattice import (
    children_of,
    common_child,
    is_valid_subtree,
    parents_of,
    subtree_leaves,
)
from repro.ptree.ptree import PTree
from repro.ptree.taxonomy import ROOT, Taxonomy
from repro.ptree.ted import (
    OrderedTree,
    normalized_ptree_similarity,
    ptree_to_ordered,
    tree_edit_distance,
)

__all__ = [
    "ROOT",
    "Taxonomy",
    "PTree",
    "addable_nodes",
    "rightmost_extensions",
    "generate_subtrees",
    "enumerate_subtrees",
    "count_subtrees",
    "lemma1_bound",
    "lemma1_recurrence",
    "children_of",
    "parents_of",
    "subtree_leaves",
    "common_child",
    "is_valid_subtree",
    "OrderedTree",
    "ptree_to_ordered",
    "tree_edit_distance",
    "normalized_ptree_similarity",
]
