"""Unit tests for :mod:`repro.hierarchy.node`."""

import pytest

from repro.exceptions import HierarchyError
from repro.hierarchy.node import HierarchyNode


def build_small():
    root = HierarchyNode("All")
    a = root.add_child("a")
    b = root.add_child("b")
    a1 = a.add_child("a1")
    a2 = a.add_child("a2")
    return root, a, b, a1, a2


class TestStructure:
    def test_root_properties(self):
        root = HierarchyNode("All")
        assert root.parent is None
        assert root.is_leaf
        assert root.depth == 0
        assert root.path == ()

    def test_child_creation_sets_depth_and_path(self):
        root, a, b, a1, a2 = build_small()
        assert a.depth == 1
        assert a1.depth == 2
        assert a1.path == ("a", "a1")
        assert a1.parent is a
        assert not a.is_leaf
        assert a1.is_leaf

    def test_add_child_is_idempotent(self):
        root = HierarchyNode("All")
        first = root.add_child("x")
        second = root.add_child("x")
        assert first is second
        assert len(root) == 1

    def test_child_lookup_raises_for_missing_label(self):
        root, a, *_ = build_small()
        with pytest.raises(HierarchyError):
            a.child("missing")

    def test_non_root_requires_label(self):
        root = HierarchyNode("All")
        with pytest.raises(HierarchyError):
            HierarchyNode("", parent=root)


class TestTraversal:
    def test_iter_subtree_visits_every_node(self):
        root, a, b, a1, a2 = build_small()
        visited = set(id(n) for n in root.iter_subtree())
        assert visited == {id(root), id(a), id(b), id(a1), id(a2)}

    def test_iter_leaves_only_returns_leaves(self):
        root, a, b, a1, a2 = build_small()
        leaves = {n.label for n in root.iter_leaves()}
        assert leaves == {"b", "a1", "a2"}

    def test_ancestors_order(self):
        root, a, b, a1, a2 = build_small()
        assert [n.label for n in a1.ancestors()] == ["a", "All"]
        assert [n.label for n in a1.ancestors(include_self=True)] == ["a1", "a", "All"]

    def test_iteration_yields_children(self):
        root, a, b, a1, a2 = build_small()
        assert {child.label for child in a} == {"a1", "a2"}
        assert len(a) == 2
