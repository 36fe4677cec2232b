"""The taxonomy (GP-tree): the global label hierarchy.

In the paper, every vertex's P-tree is an induced rooted subtree of one
*Global P-tree* "which usually corresponds to a taxonomy system in practice"
(e.g. the ACM Computing Classification System or MeSH). The taxonomy is the
anchor that makes the ancestor-closed-set encoding of P-trees exact: each
label occupies one fixed position in the hierarchy, so a P-tree is fully
described by the set of taxonomy node ids it contains.

Node ids are dense integers; the root is always id ``0``. Children keep their
insertion order, which doubles as the sibling order used by the ordered-tree
view (tree edit distance) and by rightmost-path subtree enumeration.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvalidInputError, LabelNotFoundError

ROOT = 0


class Taxonomy:
    """A rooted ordered tree of labels with integer node ids.

    Parameters
    ----------
    root_name:
        Display name of the root label (defaults to ``"r"`` as in the paper's
        figures).

    Examples
    --------
    >>> tax = Taxonomy()
    >>> cm = tax.add("CM")
    >>> ml = tax.add("ML", parent=cm)
    >>> tax.parent(ml) == cm and tax.depth(ml) == 2
    True
    """

    __slots__ = ("_names", "_parent", "_children", "_depth", "_by_name", "_preorder")

    def __init__(self, root_name: str = "r") -> None:
        self._names: List[str] = [root_name]
        self._parent: List[int] = [-1]
        self._children: List[List[int]] = [[]]
        self._depth: List[int] = [0]
        self._by_name: Dict[str, int] = {root_name: ROOT}
        self._preorder: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, name: str, parent: int = ROOT) -> int:
        """Add a label under ``parent`` and return its node id.

        Names must be unique across the taxonomy (they serve as external
        keys in serialisation and in the dataset hash-mapping procedure).
        """
        if name in self._by_name:
            raise InvalidInputError(f"duplicate label name {name!r}")
        if not 0 <= parent < len(self._names):
            raise LabelNotFoundError(parent)
        node = len(self._names)
        self._names.append(name)
        self._parent.append(parent)
        self._children.append([])
        self._children[parent].append(node)
        self._depth.append(self._depth[parent] + 1)
        self._by_name[name] = node
        self._preorder = None
        return node

    def add_path(self, names: Sequence[str]) -> int:
        """Ensure a root-to-leaf path of labels exists; return the last node id.

        Existing prefixes are reused, so calling with ``("IS", "IR")`` then
        ``("IS", "DMS")`` produces one ``IS`` node with two children.
        """
        parent = ROOT
        for name in names:
            existing = self._by_name.get(name)
            if existing is not None:
                if self._parent[existing] != parent:
                    raise InvalidInputError(
                        f"label {name!r} already exists under a different parent"
                    )
                parent = existing
            else:
                parent = self.add(name, parent)
        return parent

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total number of labels including the root (``|GP-tree|``)."""
        return len(self._names)

    @property
    def root(self) -> int:
        return ROOT

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, node: int) -> bool:
        return isinstance(node, int) and 0 <= node < len(self._names)

    def nodes(self) -> Iterator[int]:
        """Iterate over all node ids (in id order)."""
        return iter(range(len(self._names)))

    def name(self, node: int) -> str:
        """Display name of a node."""
        self._check(node)
        return self._names[node]

    def id_of(self, name: str) -> int:
        """Node id of a label name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise LabelNotFoundError(name) from None

    def parent(self, node: int) -> int:
        """Parent id (``-1`` for the root)."""
        self._check(node)
        return self._parent[node]

    def children(self, node: int) -> Tuple[int, ...]:
        """Children in sibling order."""
        self._check(node)
        return tuple(self._children[node])

    def depth(self, node: int) -> int:
        """Depth of ``node`` (root has depth 0)."""
        self._check(node)
        return self._depth[node]

    def height(self) -> int:
        """Maximum depth over all nodes."""
        return max(self._depth)

    def is_leaf(self, node: int) -> bool:
        """Whether ``node`` has no children in the taxonomy."""
        self._check(node)
        return not self._children[node]

    def ancestors(self, node: int) -> Tuple[int, ...]:
        """Strict ancestors of ``node``, nearest first (excludes ``node``)."""
        self._check(node)
        out: List[int] = []
        p = self._parent[node]
        while p != -1:
            out.append(p)
            p = self._parent[p]
        return tuple(out)

    def path_to_root(self, node: int) -> Tuple[int, ...]:
        """``node`` followed by its ancestors up to and including the root."""
        return (node,) + self.ancestors(node)

    def closure(self, nodes: Iterable[int]) -> FrozenSet[int]:
        """Ancestor closure of ``nodes`` — the smallest valid P-tree node set.

        The result contains every input node plus all of its ancestors
        (hence the root whenever the input is non-empty).
        """
        out = set()
        for node in nodes:
            self._check(node)
            while node != -1 and node not in out:
                out.add(node)
                node = self._parent[node]
        return frozenset(out)

    def is_ancestor_closed(self, nodes: Iterable[int]) -> bool:
        """Whether ``nodes`` is closed under taking parents (a valid P-tree set)."""
        node_set = set(nodes)
        for node in node_set:
            if not isinstance(node, int) or not 0 <= node < len(self._names):
                return False
            parent = self._parent[node]
            if parent != -1 and parent not in node_set:
                return False
        return True

    def preorder(self, node: int) -> int:
        """Preorder (DFS, sibling order) index of ``node``; root is 0."""
        self._check(node)
        if self._preorder is None:
            self._compute_preorder()
        return self._preorder[node]

    def subtree_nodes(self, node: int) -> FrozenSet[int]:
        """All descendants of ``node`` including itself."""
        self._check(node)
        out: List[int] = []
        stack = [node]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(self._children[current])
        return frozenset(out)

    def leaves(self) -> Tuple[int, ...]:
        """All taxonomy leaves in id order."""
        return tuple(n for n in range(len(self._names)) if not self._children[n])

    # ------------------------------------------------------------------
    # derived taxonomies and sampling
    # ------------------------------------------------------------------
    def restrict(self, keep: Iterable[int]) -> Tuple["Taxonomy", Dict[int, int]]:
        """A new taxonomy over the ancestor closure of ``keep``.

        Used by the GP-tree scalability sweep (Fig. 13(c)/14(m-p)): sampling a
        fraction of the GP-tree and re-anchoring every P-tree to it. Returns
        the new taxonomy plus an old-id → new-id mapping.
        """
        closed = self.closure(keep)
        order = sorted(closed, key=self.preorder)
        mapping: Dict[int, int] = {}
        new = Taxonomy(root_name=self._names[ROOT])
        mapping[ROOT] = ROOT
        for old in order:
            if old == ROOT:
                continue
            mapping[old] = new.add(self._names[old], parent=mapping[self._parent[old]])
        return new, mapping

    def random_focused_subtree(
        self,
        rng: random.Random,
        size: int,
        anchor_depth: int = 2,
        attempts: int = 4,
    ) -> FrozenSet[int]:
        """Sample a deep, focused rooted subtree (a realistic "theme").

        Picks a random anchor node at ``anchor_depth`` (or the deepest
        available ancestor level) and grows the subtree only *below* the
        anchor, plus the anchor's path to the root. Real subject profiles
        are focused like this; growing from the root instead yields
        shallow-bushy trees whose top-level labels become near-universal
        across a dataset (see repro.datasets.synthetic).

        Anchors whose taxonomy subtree is too small to host ``size`` nodes
        are re-drawn up to ``attempts`` times, then the anchor depth is
        relaxed by one — the largest theme found is returned.
        """
        if size <= 0:
            return frozenset()
        best: FrozenSet[int] = frozenset()
        for _ in range(max(1, attempts)):
            anchor = ROOT
            for _ in range(anchor_depth):
                children = self._children[anchor]
                if not children:
                    break
                anchor = children[rng.randrange(len(children))]
            selected = set(self.path_to_root(anchor))
            frontier = list(self._children[anchor])
            while len(selected) < size and frontier:
                idx = rng.randrange(len(frontier))
                frontier[idx], frontier[-1] = frontier[-1], frontier[idx]
                chosen = frontier.pop()
                if chosen in selected:
                    continue
                selected.add(chosen)
                frontier.extend(
                    c for c in self._children[chosen] if c not in selected
                )
            if len(selected) >= size:
                return frozenset(selected)
            if len(selected) > len(best):
                best = frozenset(selected)
        if anchor_depth > 1 and len(best) < max(2, size // 2):
            shallower = self.random_focused_subtree(
                rng, size, anchor_depth - 1, attempts
            )
            if len(shallower) > len(best):
                best = shallower
        return best

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check(self, node: int) -> None:
        # `type() is int` also refuses bool: JSON `true` must not name label 1.
        if type(node) is not int or not 0 <= node < len(self._names):
            raise LabelNotFoundError(node)

    def _compute_preorder(self) -> None:
        order = [0] * len(self._names)
        counter = 0
        stack = [ROOT]
        while stack:
            node = stack.pop()
            order[node] = counter
            counter += 1
            # push children reversed so the first child is visited first
            stack.extend(reversed(self._children[node]))
        self._preorder = order

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Taxonomy(nodes={self.num_nodes}, height={self.height()})"
