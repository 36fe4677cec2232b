"""Tests for PTree (ancestor-closed label sets with tree semantics)."""

import functools
import operator

import pytest

from repro.errors import InvalidInputError, NotAncestorClosedError
from repro.ptree import PTree, ROOT, Taxonomy


@pytest.fixture
def tax() -> Taxonomy:
    t = Taxonomy()
    a = t.add("a")
    b = t.add("b")
    t.add("c", parent=a)
    t.add("d", parent=a)
    t.add("e", parent=b)
    return t


class TestConstruction:
    def test_empty(self, tax):
        t = PTree.empty(tax)
        assert len(t) == 0
        assert not t
        assert t.depth() == 0

    def test_root_only(self, tax):
        t = PTree.root_only(tax)
        assert len(t) == 1
        assert ROOT in t

    def test_from_nodes_closes(self, tax):
        c = tax.id_of("c")
        t = PTree.from_nodes(tax, [c])
        assert t.nodes == frozenset({c, tax.id_of("a"), ROOT})

    def test_from_names(self, tax):
        t = PTree.from_names(tax, ["c", "e"])
        assert t.names() == {"r", "a", "c", "b", "e"}

    def test_non_closed_rejected(self, tax):
        with pytest.raises(NotAncestorClosedError):
            PTree(tax, {tax.id_of("c")})

    def test_immutability(self, tax):
        t = PTree.root_only(tax)
        with pytest.raises(AttributeError):
            t.nodes = frozenset()


class TestOrderAndEquality:
    def test_subtree_relation(self, tax):
        small = PTree.from_names(tax, ["a"])
        large = PTree.from_names(tax, ["c", "d"])
        assert small <= large
        assert small < large
        assert not (large <= small)

    def test_equality_and_hash(self, tax):
        t1 = PTree.from_names(tax, ["c"])
        t2 = PTree.from_nodes(tax, [tax.id_of("c")])
        assert t1 == t2
        assert hash(t1) == hash(t2)
        assert t1 != PTree.from_names(tax, ["d"])

    def test_cross_taxonomy_rejected(self, tax):
        other = Taxonomy()
        other.add("a")
        with pytest.raises(InvalidInputError):
            PTree.root_only(tax) | PTree.root_only(other)


class TestLatticeOps:
    def test_union_is_unified_ptree(self, tax):
        t1 = PTree.from_names(tax, ["c"])
        t2 = PTree.from_names(tax, ["e"])
        union = t1 | t2
        assert union.names() == {"r", "a", "c", "b", "e"}

    def test_intersection_is_common_subtree(self, tax):
        t1 = PTree.from_names(tax, ["c", "e"])
        t2 = PTree.from_names(tax, ["d", "e"])
        common = t1 & t2
        assert common.names() == {"r", "a", "b", "e"}

    def test_maximal_common_subtree_many(self, tax):
        trees = [
            PTree.from_names(tax, ["c", "e"]),
            PTree.from_names(tax, ["c", "d"]),
            PTree.from_names(tax, ["c"]),
        ]
        m = functools.reduce(operator.and_, trees)
        assert m.names() == {"r", "a", "c"}


class TestStructure:
    def test_leaves(self, tax):
        t = PTree.from_names(tax, ["c", "d", "e"])
        names = {tax.name(x) for x in t.leaves()}
        assert names == {"c", "d", "e"}

    def test_children_in_tree(self, tax):
        t = PTree.from_names(tax, ["c", "e"])
        children = t.children_in_tree(ROOT)
        assert {tax.name(x) for x in children} == {"a", "b"}

    def test_depth_and_levels(self, tax):
        t = PTree.from_names(tax, ["c"])
        assert t.depth() == 3
        levels = t.levels()
        assert [len(level) for level in levels] == [1, 1, 1]
        assert t.level_nodes(1) == frozenset({tax.id_of("a")})

    def test_pretty_renders_all_labels(self, tax):
        t = PTree.from_names(tax, ["c", "e"])
        text = t.pretty()
        for name in ("r", "a", "c", "b", "e"):
            assert name in text
        assert PTree.empty(tax).pretty() == "(empty P-tree)"
