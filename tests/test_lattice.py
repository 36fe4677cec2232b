"""Tests for the subtree lattice (parents/children, Upper-diamond)."""

import random

import pytest

from repro.errors import InvalidInputError
from repro.ptree import (
    ROOT,
    Taxonomy,
    children_of,
    common_child,
    is_valid_subtree,
    parents_of,
    subtree_leaves,
)


def random_taxonomy(rng: random.Random, n: int) -> Taxonomy:
    tax = Taxonomy()
    for i in range(1, n):
        tax.add(f"L{i}", parent=rng.randrange(i))
    return tax


class TestChildrenParents:
    def test_children_add_one_node(self):
        rng = random.Random(0)
        tax = random_taxonomy(rng, 10)
        base = frozenset(tax.nodes())
        current = tax.closure([4])
        for child in children_of(tax, base, current):
            assert len(child) == len(current) + 1
            assert tax.is_ancestor_closed(child)

    def test_parents_remove_one_leaf(self):
        rng = random.Random(1)
        tax = random_taxonomy(rng, 10)
        current = tax.closure([5, 8])
        for parent in parents_of(tax, current):
            assert len(parent) == len(current) - 1
            assert tax.is_ancestor_closed(parent)

    def test_parent_child_inverse(self):
        rng = random.Random(2)
        for _ in range(10):
            tax = random_taxonomy(rng, 8)
            base = frozenset(tax.nodes())
            current = tax.closure([rng.randrange(8)])
            for child in children_of(tax, base, current):
                assert current in parents_of(tax, child)

    def test_root_only_parent_is_empty(self):
        tax = random_taxonomy(random.Random(3), 5)
        assert parents_of(tax, frozenset({ROOT})) == [frozenset()]

    def test_subtree_leaves(self):
        tax = Taxonomy()
        a = tax.add("a")
        c = tax.add("c", parent=a)
        current = frozenset({ROOT, a, c})
        assert subtree_leaves(tax, current) == [c]


class TestUpperDiamond:
    def test_common_child_is_union(self):
        tax = Taxonomy()
        a = tax.add("a")
        b = tax.add("b")
        base = frozenset({ROOT, a, b})
        parent = frozenset({ROOT})
        first = parent | {a}
        second = parent | {b}
        assert common_child(tax, base, first, second) == frozenset({ROOT, a, b})

    def test_property_holds_for_random_siblings(self):
        # Proposition 2: any two children of a subtree share a child.
        rng = random.Random(5)
        for _ in range(20):
            tax = random_taxonomy(rng, 9)
            base = frozenset(tax.nodes())
            current = tax.closure([rng.randrange(9)])
            kids = children_of(tax, base, current)
            if len(kids) < 2:
                continue
            first, second = rng.sample(kids, 2)
            merged = common_child(tax, base, first, second)
            assert first < merged and second < merged
            assert is_valid_subtree(tax, base, merged)

    def test_non_siblings_rejected(self):
        tax = Taxonomy()
        a = tax.add("a")
        b = tax.add("b")
        base = frozenset({ROOT, a, b})
        with pytest.raises(InvalidInputError):
            common_child(tax, base, frozenset({ROOT}), frozenset({ROOT, a, b}))

    def test_escaping_base_rejected(self):
        tax = Taxonomy()
        a = tax.add("a")
        b = tax.add("b")
        base = frozenset({ROOT, a})  # b outside
        with pytest.raises(InvalidInputError):
            common_child(tax, base, frozenset({ROOT, a}), frozenset({ROOT, b}))


class TestValidity:
    def test_is_valid_subtree(self):
        tax = Taxonomy()
        a = tax.add("a")
        c = tax.add("c", parent=a)
        base = frozenset({ROOT, a, c})
        assert is_valid_subtree(tax, base, frozenset({ROOT, a}))
        assert not is_valid_subtree(tax, base, frozenset({ROOT, c}))  # not closed
        assert not is_valid_subtree(tax, base, frozenset({ROOT, a, c, 99}))
