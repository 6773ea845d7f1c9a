"""Unit tests for :mod:`repro.hierarchy.tree`."""

import pytest

from repro.exceptions import HierarchyError, UnknownCategoryError
from repro.hierarchy.tree import HierarchyTree


@pytest.fixture
def tree() -> HierarchyTree:
    return HierarchyTree.from_leaf_paths(
        [
            ("tv", "no-service", "no-pic"),
            ("tv", "no-service", "no-sound"),
            ("tv", "pixelation"),
            ("internet", "slow"),
            ("internet", "down"),
        ],
        root_label="All",
    )


class TestConstruction:
    def test_counts(self, tree):
        assert tree.num_leaves == 5
        # root + tv + internet + no-service + pixelation + slow + down + 2 leaves under no-service
        assert tree.num_nodes == 9
        assert tree.depth == 4

    def test_leaf_lookup(self, tree):
        leaf = tree.leaf(("tv", "no-service", "no-pic"))
        assert leaf.is_leaf
        assert leaf.depth == 3

    def test_unknown_leaf_raises(self, tree):
        with pytest.raises(UnknownCategoryError):
            tree.leaf(("tv", "missing"))

    def test_interior_node_lookup(self, tree):
        node = tree.node(("tv", "no-service"))
        assert not node.is_leaf
        assert len(node.children) == 2

    def test_unknown_node_raises(self, tree):
        with pytest.raises(UnknownCategoryError):
            tree.node(("tv", "no-service", "missing"))

    def test_len_counts_every_node(self, tree):
        assert len(tree) == tree.num_nodes == 9

    def test_contains(self, tree):
        assert ("tv",) in tree
        assert ("tv", "no-service") in tree
        assert ("nope",) not in tree

    def test_prefix_leaf_path_rejected(self):
        tree = HierarchyTree()
        tree.add_leaf(("a",))
        tree.add_leaf(("a", "b"))
        with pytest.raises(HierarchyError):
            tree.validate()

    def test_empty_leaf_path_rejected(self):
        tree = HierarchyTree()
        with pytest.raises(HierarchyError):
            tree.add_leaf(())

    def test_freeze_index_assigns_dense_ids(self, tree):
        tree.freeze_index()
        indices = sorted(node.index for node in tree.iter_nodes())
        assert indices == list(range(tree.num_nodes))


class TestTraversal:
    def test_level_order_top_down(self, tree):
        depths = [node.depth for node in tree.iter_level_order(top_down=True)]
        assert depths == sorted(depths)

    def test_level_order_bottom_up(self, tree):
        depths = [node.depth for node in tree.iter_level_order(top_down=False)]
        assert depths == sorted(depths, reverse=True)

    def test_level_order_visits_all_nodes(self, tree):
        assert len(list(tree.iter_level_order())) == tree.num_nodes

    def test_nodes_at_depth(self, tree):
        assert {n.label for n in tree.nodes_at_depth(1)} == {"tv", "internet"}
        assert {n.label for n in tree.nodes_at_depth(3)} == {"no-pic", "no-sound"}


class TestStatistics:
    def test_typical_degree_at_level(self, tree):
        # Level 1: the root has 2 children.
        assert tree.typical_degree_at_level(1) == 2.0
        # Level 2: non-leaf nodes are tv (2 children) and internet (2 children).
        assert tree.typical_degree_at_level(2) == 2.0

    def test_leaf_only_level_has_no_typical_degree(self, tree):
        # Level 4 holds only the leaves under no-service; past the depth
        # there are no nodes at all.
        assert tree.typical_degree_at_level(4) == 0.0
        assert tree.typical_degree_at_level(9) == 0.0

    def test_typical_degree_is_the_median(self):
        tree = HierarchyTree.from_leaf_paths(
            [("a", "x"), ("b", "x"), ("b", "y"), ("c", "x"), ("c", "y"), ("c", "z")]
        )
        # Level-2 degrees are 1, 2 and 3: the odd-count median is 2.
        assert tree.typical_degree_at_level(2) == 2.0
        for label in ("s", "t", "u", "w"):
            tree.add_leaf(("d", label))
        # Adding d (4 children) makes the count even: the mean of the two
        # middle degrees of 1, 2, 3, 4.
        assert tree.typical_degree_at_level(2) == 2.5
