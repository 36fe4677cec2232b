"""Tests for the taxonomy (GP-tree)."""

import random

import pytest

from repro.errors import InvalidInputError, LabelNotFoundError
from repro.ptree import ROOT, Taxonomy


def small_taxonomy() -> Taxonomy:
    # r -> a -> (c, d); r -> b -> e
    tax = Taxonomy()
    a = tax.add("a")
    b = tax.add("b")
    tax.add("c", parent=a)
    tax.add("d", parent=a)
    tax.add("e", parent=b)
    return tax


class TestConstruction:
    def test_root_exists(self):
        tax = Taxonomy()
        assert tax.num_nodes == 1
        assert tax.root == ROOT
        assert tax.parent(ROOT) == -1
        assert tax.depth(ROOT) == 0

    def test_add_assigns_sequential_ids(self):
        tax = Taxonomy()
        assert tax.add("x") == 1
        assert tax.add("y") == 2

    def test_duplicate_name_rejected(self):
        tax = Taxonomy()
        tax.add("x")
        with pytest.raises(InvalidInputError):
            tax.add("x")

    def test_bad_parent_rejected(self):
        tax = Taxonomy()
        with pytest.raises(LabelNotFoundError):
            tax.add("x", parent=42)

    def test_add_path_reuses_prefix(self):
        tax = Taxonomy()
        leaf1 = tax.add_path(["IS", "IR"])
        leaf2 = tax.add_path(["IS", "DMS"])
        assert tax.parent(leaf1) == tax.parent(leaf2) == tax.id_of("IS")
        assert tax.num_nodes == 4

    def test_add_path_conflicting_parent_rejected(self):
        tax = Taxonomy()
        tax.add_path(["A", "B"])
        with pytest.raises(InvalidInputError):
            tax.add_path(["C", "B"])


class TestQueries:
    def test_parent_children_depth(self):
        tax = small_taxonomy()
        a = tax.id_of("a")
        c = tax.id_of("c")
        assert tax.parent(c) == a
        assert tax.children(a) == (c, tax.id_of("d"))
        assert tax.depth(c) == 2
        assert tax.height() == 2

    def test_is_leaf(self):
        tax = small_taxonomy()
        assert tax.is_leaf(tax.id_of("c"))
        assert not tax.is_leaf(tax.id_of("a"))

    def test_ancestors_and_path(self):
        tax = small_taxonomy()
        c = tax.id_of("c")
        a = tax.id_of("a")
        assert tax.ancestors(c) == (a, ROOT)
        assert tax.path_to_root(c) == (c, a, ROOT)
        assert tax.ancestors(ROOT) == ()

    def test_name_and_id_roundtrip(self):
        tax = small_taxonomy()
        for node in tax.nodes():
            assert tax.id_of(tax.name(node)) == node

    def test_unknown_label_raises(self):
        tax = small_taxonomy()
        with pytest.raises(LabelNotFoundError):
            tax.id_of("zz")
        with pytest.raises(LabelNotFoundError):
            tax.name(99)

    def test_leaves(self):
        tax = small_taxonomy()
        assert set(tax.leaves()) == {tax.id_of("c"), tax.id_of("d"), tax.id_of("e")}

    def test_subtree_nodes(self):
        tax = small_taxonomy()
        a = tax.id_of("a")
        assert tax.subtree_nodes(a) == frozenset({a, tax.id_of("c"), tax.id_of("d")})


class TestClosure:
    def test_closure_adds_ancestors(self):
        tax = small_taxonomy()
        c = tax.id_of("c")
        assert tax.closure([c]) == frozenset({c, tax.id_of("a"), ROOT})

    def test_closure_empty(self):
        assert small_taxonomy().closure([]) == frozenset()

    def test_is_ancestor_closed(self):
        tax = small_taxonomy()
        c = tax.id_of("c")
        a = tax.id_of("a")
        assert tax.is_ancestor_closed({ROOT, a, c})
        assert not tax.is_ancestor_closed({ROOT, c})
        assert not tax.is_ancestor_closed({c})
        assert tax.is_ancestor_closed(set())
        assert not tax.is_ancestor_closed({999})


class TestPreorder:
    def test_root_first(self):
        tax = small_taxonomy()
        assert tax.preorder(ROOT) == 0

    def test_preorder_respects_sibling_order(self):
        tax = small_taxonomy()
        # DFS: r, a, c, d, b, e
        order = sorted(tax.nodes(), key=tax.preorder)
        names = [tax.name(n) for n in order]
        assert names == ["r", "a", "c", "d", "b", "e"]

    def test_preorder_recomputed_after_add(self):
        tax = small_taxonomy()
        tax.preorder(ROOT)
        f = tax.add("f", parent=tax.id_of("a"))
        assert tax.preorder(f) < tax.preorder(tax.id_of("b"))


class TestRestrict:
    def test_restrict_keeps_closure(self):
        tax = small_taxonomy()
        c = tax.id_of("c")
        new, mapping = tax.restrict([c])
        assert new.num_nodes == 3  # r, a, c
        assert new.parent(mapping[c]) == mapping[tax.id_of("a")]
        assert new.name(mapping[c]) == "c"

    def test_restrict_preserves_names(self):
        tax = small_taxonomy()
        new, mapping = tax.restrict(list(tax.nodes()))
        assert new.num_nodes == tax.num_nodes
        for old, fresh in mapping.items():
            assert new.name(fresh) == tax.name(old)


class TestRandomSubtrees:
    def test_focused_subtree_is_closed_and_focused(self):
        from repro.datasets import ccs_like_taxonomy

        tax = ccs_like_taxonomy(300)
        rng = random.Random(1)
        for _ in range(10):
            nodes = tax.random_focused_subtree(rng, 8, anchor_depth=2)
            assert tax.is_ancestor_closed(nodes)
            # at most anchor_depth nodes above the anchor => at most
            # anchor_depth + 1 branches touched near the top
            depth1 = [n for n in nodes if tax.depth(n) == 1]
            assert len(depth1) <= 1

    def test_zero_size(self):
        tax = small_taxonomy()
        assert tax.random_focused_subtree(random.Random(0), 0) == frozenset()
