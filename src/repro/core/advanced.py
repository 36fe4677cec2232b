"""Algorithms 4–8: border expansion (``expandPtree``) and the ``adv-*`` queries.

The Apriori sweep of ``incre`` explores the subtree search space bottom-up,
but the paper observes (Table 3) that maximal feasible subtrees concentrate
in the *middle* of the lattice — so most of that exploration is avoidable.
Following MARGIN [43], the advanced methods walk only the **border** between
feasible and infeasible subtrees:

* a **cut** is a pair (IF, F) where F is feasible and IF is an infeasible
  lattice child of F (one node larger);
* :func:`expand_ptree` (Algorithm 4) breadth-first expands a cut into all
  adjacent cuts, recording every feasible subtree whose lattice children are
  all infeasible — exactly the maximal feasible subtrees. Correctness rests
  on the anti-monotonicity of feasibility (Lemma 2) and the Upper-◇ property
  (Proposition 2), which our set encoding satisfies constructively
  (``common_child`` = union);
* the three initial-cut finders trade work to locate the border:
  ``find-I`` (Algorithm 5) sweeps up from {r} like ``incre``; ``find-D``
  (Algorithm 6) strips leaves down from T(q); ``find-P`` (Algorithm 7)
  probes whole root-to-leaf *paths* via single ``I.get`` calls — the paper's
  fastest.

The special case IF = ∅ (Algorithm 4 line 2) signals F = T(q) itself is
feasible: T(q) is then the unique maximal feasible subtree.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.apriori import apriori_traverse
from repro.core.cohesion import CohesionModel
from repro.core.community import PCSResult, ProfiledCommunity
from repro.core.feasibility import FeasibilityOracle
from repro.core.profiled_graph import ProfiledGraph
from repro.errors import InvalidInputError
from repro.index.cptree import CPTree
from repro.ptree.enumeration import addable_nodes
from repro.ptree.lattice import parents_of
from repro.ptree.ptree import PTree
from repro.ptree.taxonomy import ROOT

Vertex = Hashable
NodeSet = FrozenSet[int]

#: (IF, F): infeasible child / feasible parent. ``IF is None`` encodes the
#: Algorithm-4 special case where F (= T(q)) has no children at all.
Cut = Tuple[Optional[NodeSet], NodeSet]

EMPTY_NODES: NodeSet = frozenset()


# ----------------------------------------------------------------------
# Algorithm 5: find-I
# ----------------------------------------------------------------------
def find_initial_cut_incre(oracle: FeasibilityOracle) -> Optional[Cut]:
    """Find an initial cut by incremental (bottom-up) enumeration.

    Runs the ``incre`` sweep until the first maximal feasible subtree F is
    confirmed and pairs it with one of its infeasible children. Returns
    ``None`` when no feasible subtree exists at all.
    """
    outcome = apriori_traverse(oracle, stop_at_first_maximal=True)
    return outcome.first_cut


# ----------------------------------------------------------------------
# Algorithm 6: find-D
# ----------------------------------------------------------------------
def find_initial_cut_decre(oracle: FeasibilityOracle) -> Optional[Cut]:
    """Find an initial cut by decremental (top-down) leaf stripping.

    Starts from T(q); when infeasible, repeatedly removes one subtree leaf,
    returning the first (infeasible tree, feasible parent) pair encountered.
    """
    base = oracle.base_nodes
    taxonomy = oracle.pg.taxonomy
    if ROOT not in base:
        return (None, EMPTY_NODES) if oracle.community(EMPTY_NODES) else None
    if not oracle.is_feasible(frozenset((ROOT,))):
        return None
    if oracle.is_feasible(base):
        return (None, base)
    stack: List[NodeSet] = [base]
    visited = {base}
    while stack:
        current = stack.pop()
        for parent in parents_of(taxonomy, current):
            if oracle.is_feasible(parent):
                return (current, parent)
            if parent not in visited:
                visited.add(parent)
                stack.append(parent)
    # Unreachable when {r} is feasible: stripping always reaches {r}.
    return None


# ----------------------------------------------------------------------
# Algorithm 7: find-P
# ----------------------------------------------------------------------
def find_initial_cut_path(oracle: FeasibilityOracle) -> Optional[Cut]:
    """Find an initial cut by whole-path probes.

    T(q) decomposes into root-to-leaf paths, and for a path P to leaf t,
    ``Gk[P] = I.get(k, q, t)`` — one index lookup verifies a whole subtree.
    The finder locates a feasible path, merges the remaining paths in while
    they stay feasible, and reports the boundary found on the first path
    that does not merge. Returns ``None`` when no feasible subtree exists.
    """
    base = oracle.base_nodes
    taxonomy = oracle.pg.taxonomy
    if ROOT not in base:
        return (None, EMPTY_NODES) if oracle.community(EMPTY_NODES) else None
    if not oracle.is_feasible(frozenset((ROOT,))):
        return None
    pre = taxonomy.preorder

    # --- locate a feasible path, climbing S towards the root if needed.
    frontier = sorted(
        (x for x in base if not any(c in base for c in taxonomy.children(x))),
        key=pre,
    )
    feasible_node: Optional[int] = None
    while feasible_node is None:
        for t in frontier:
            if oracle.is_feasible(frozenset(taxonomy.path_to_root(t))):
                feasible_node = t
                break
        if feasible_node is None:
            lifted = {taxonomy.parent(t) for t in frontier if t != ROOT}
            lifted.discard(-1)
            frontier = sorted(lifted or {ROOT}, key=pre)
            # {r} alone is feasible (checked above), so this terminates.

    current: NodeSet = frozenset(taxonomy.path_to_root(feasible_node))

    # --- merge in the other paths of the frontier.
    for t in frontier:
        if t == feasible_node or t in current:
            continue
        candidate = current | frozenset(taxonomy.path_to_root(t))
        if oracle.is_feasible(candidate):
            current = candidate
            continue
        # Walk up t's path to the feasibility boundary relative to `current`.
        below: Optional[int] = None
        for node in taxonomy.path_to_root(t):
            merged = current | frozenset(taxonomy.path_to_root(node))
            if node in current or oracle.is_feasible(merged):
                # `node` is t'_parent; `below` is the infeasible child t'.
                feasible_tree = merged
                infeasible_tree = feasible_tree | {below}
                return (infeasible_tree, feasible_tree)
            below = node
        # The walk always terminates: the path root r lies in `current`.

    # --- every frontier path merged: extend greedily to reach the border.
    while True:
        extensions = sorted(addable_nodes(taxonomy, base, current), key=pre)
        if not extensions:
            return (None, current)  # current == T(q)
        extended = False
        for x in extensions:
            child = current | {x}
            if oracle.is_feasible_from_parent(child, current, x):
                current = child
                extended = True
                break
            return (child, current)
        if not extended:  # pragma: no cover - loop exits via return above
            return None


# ----------------------------------------------------------------------
# Algorithm 4: expandPtree
# ----------------------------------------------------------------------
def expand_ptree(
    oracle: FeasibilityOracle,
    cut: Cut,
    results: Optional[Dict[NodeSet, FrozenSet[Vertex]]] = None,
) -> Dict[NodeSet, FrozenSet[Vertex]]:
    """Expand an initial cut along the feasibility border (Algorithm 4).

    Returns (and fills) ``results``: maximal feasible subtree → community.
    """
    if results is None:
        results = {}
    base = oracle.base_nodes
    taxonomy = oracle.pg.taxonomy
    infeasible_first, feasible_first = cut

    if infeasible_first is None:
        # Line 2: F has no children in the lattice (F = T(q)) — maximal.
        results[feasible_first] = oracle.community(feasible_first)
        return results

    # Cuts are processed once per infeasible component: the expansion body
    # only reads IF (every parent of IF is examined regardless of F), so
    # deduplicating on IF does the work of every cut sharing it.
    queue: deque = deque((infeasible_first,))
    seen = {infeasible_first}
    while queue:
        infeasible_tree = queue.popleft()
        for candidate in parents_of(taxonomy, infeasible_tree):
            if oracle.is_feasible(candidate):
                feasible_children: List[NodeSet] = []
                infeasible_children: List[NodeSet] = []
                for x in addable_nodes(taxonomy, base, candidate):
                    child = candidate | {x}
                    if oracle.is_feasible_from_parent(child, candidate, x):
                        feasible_children.append(child)
                    else:
                        infeasible_children.append(child)
                if not feasible_children:
                    # Line 9: no feasible child — `candidate` is maximal.
                    results.setdefault(candidate, oracle.community(candidate))
                for child in infeasible_children:
                    if child not in seen:
                        seen.add(child)
                        queue.append(child)
                for child in feasible_children:
                    if child == infeasible_tree:
                        continue
                    # Lines 12-14: Upper-◇ — the common child of a feasible
                    # sibling and the infeasible tree is itself infeasible.
                    common = child | infeasible_tree
                    if common not in seen:
                        seen.add(common)
                        queue.append(common)
            else:
                # Lines 15-17: `candidate` is infeasible — expand the cut it
                # forms with *a* feasible parent (MARGIN: "find a frequent
                # parent"), keeping the walk on the border instead of
                # cascading through the whole feasible interior.
                if candidate in seen:
                    continue
                for parent in parents_of(taxonomy, candidate):
                    if oracle.is_feasible(parent):
                        seen.add(candidate)
                        queue.append(candidate)
                        break
    return results


# ----------------------------------------------------------------------
# Algorithm 8: the advanced query
# ----------------------------------------------------------------------
_FINDERS: Dict[str, Callable[[FeasibilityOracle], Optional[Cut]]] = {
    "I": find_initial_cut_incre,
    "D": find_initial_cut_decre,
    "P": find_initial_cut_path,
}


def advanced_query(
    pg: ProfiledGraph,
    q: Vertex,
    k: int,
    find: str = "P",
    index: Optional[CPTree] = None,
    cohesion: Optional[CohesionModel] = None,
) -> PCSResult:
    """Run an advanced PCS query (Algorithm 8) with the chosen cut finder.

    Parameters
    ----------
    find:
        ``"I"``, ``"D"`` or ``"P"`` selecting find-I / find-D / find-P;
        the resulting methods are the paper's adv-I, adv-D and adv-P.
    """
    finder = _FINDERS.get(find.upper())
    if finder is None:
        raise InvalidInputError(f"unknown find function {find!r}; use I, D or P")
    if index is None:
        index = pg.index()
    start = time.perf_counter()
    oracle = FeasibilityOracle(pg, q, k, index=index, cohesion=cohesion)
    cut = finder(oracle)
    maximal: Dict[NodeSet, FrozenSet[Vertex]] = {}
    if cut is not None:
        expand_ptree(oracle, cut, maximal)
    communities = [
        ProfiledCommunity(
            query=q,
            k=k,
            vertices=members,
            subtree=PTree(pg.taxonomy, subtree, _validated=True),
        )
        for subtree, members in maximal.items()
    ]
    result = PCSResult(
        query=q,
        k=k,
        method=f"adv-{find.upper()}",
        communities=communities,
        elapsed_seconds=time.perf_counter() - start,
        num_verifications=oracle.verifications,
    )
    return result.sort()
