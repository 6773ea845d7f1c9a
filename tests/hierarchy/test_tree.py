"""Unit tests for :mod:`repro.hierarchy.tree`."""

import numpy as np
import pytest

from repro.exceptions import HierarchyError, UnknownCategoryError
from repro.hierarchy.tree import HierarchyTree, NodeRecord


@pytest.fixture
def tree() -> HierarchyTree:
    return HierarchyTree(
        [
            ("tv", "no-service", "no-pic"),
            ("tv", "no-service", "no-sound"),
            ("tv", "pixelation"),
            ("internet", "slow"),
            ("internet", "down"),
        ],
        root_label="All",
    )


def small_tree() -> HierarchyTree:
    return HierarchyTree([("a", "a1"), ("a", "a2"), ("b",)])


class TestConstruction:
    def test_counts(self, tree):
        assert tree.num_leaves == 5
        # root + tv + internet + no-service + pixelation + slow + down + 2 leaves under no-service
        assert tree.num_nodes == 9
        assert tree.depth == 4

    def test_leaf_paths_keep_insertion_order(self, tree):
        assert tree.leaf_paths() == [
            ("tv", "no-service", "no-pic"),
            ("tv", "no-service", "no-sound"),
            ("tv", "pixelation"),
            ("internet", "slow"),
            ("internet", "down"),
        ]

    def test_a_repeated_leaf_is_one_leaf(self):
        tree = HierarchyTree([("x", "y"), ("x", "y"), ("z",)])
        assert tree.leaf_paths() == [("x", "y"), ("z",)]
        assert tree.num_nodes == 4

    def test_children_in_insertion_order(self, tree):
        assert tree.children(()) == [("tv",), ("internet",)]
        assert tree.children(("tv", "no-service")) == [
            ("tv", "no-service", "no-pic"),
            ("tv", "no-service", "no-sound"),
        ]
        assert tree.children(["internet", "slow"]) == []

    def test_unknown_path_raises(self, tree):
        with pytest.raises(UnknownCategoryError):
            tree.children(("tv", "no-service", "missing"))
        with pytest.raises(UnknownCategoryError):
            tree.leaves_under(("nope",))

    def test_len_counts_every_node(self, tree):
        assert len(tree) == tree.num_nodes == 9

    def test_contains(self, tree):
        assert ("tv",) in tree
        assert ("tv", "no-service") in tree
        assert ["tv", "pixelation"] in tree
        assert () in tree
        assert ("nope",) not in tree

    @pytest.mark.parametrize(
        "leaves", [[("a",), ("a", "b")], [("a", "b"), ("a",)], [("a", "b", "c"), ("a",)]]
    )
    def test_prefix_leaf_path_rejected(self, leaves):
        with pytest.raises(HierarchyError):
            HierarchyTree(leaves)

    def test_empty_leaf_path_rejected(self):
        with pytest.raises(HierarchyError):
            HierarchyTree([("a",), ()])

    @pytest.mark.parametrize("leaf", [("",), ("a", ""), ("", "b")])
    def test_empty_label_rejected(self, leaf):
        with pytest.raises(HierarchyError):
            HierarchyTree([leaf])

    def test_a_root_label_in_place_of_the_leaves_is_refused(self):
        with pytest.raises(HierarchyError):
            HierarchyTree("All")

    def test_root_only_tree(self):
        tree = HierarchyTree([], root_label="National")
        assert tree.num_nodes == 1 and tree.num_leaves == 0 and tree.depth == 1
        assert list(tree.iter_nodes()) == [NodeRecord((), 0, "National")]
        assert tree.leaf_paths() == [] and tree.children(()) == []

    def test_a_tree_cannot_grow(self, tree):
        assert not hasattr(tree, "add_leaf") and not hasattr(tree, "add_node")


class TestIds:
    def test_bfs_ids(self, tree):
        assert tree.paths == (
            (),
            ("tv",),
            ("internet",),
            ("tv", "no-service"),
            ("tv", "pixelation"),
            ("internet", "slow"),
            ("internet", "down"),
            ("tv", "no-service", "no-pic"),
            ("tv", "no-service", "no-sound"),
        )
        assert tree.path_to_id == {path: i for i, path in enumerate(tree.paths)}
        assert tree.depths.tolist() == [len(path) for path in tree.paths]
        assert tree.parent.tolist() == [0, 0, 0, 1, 1, 2, 2, 3, 3]
        assert tree.child_start.tolist() == [1, 3, 5, 7, 9, 9, 9, 9, 9, 9]

    def test_leaf_ids_follow_insertion_order(self):
        tree = HierarchyTree([("b", "y"), ("a",), ("b", "x")])
        assert tree.paths == ((), ("b",), ("a",), ("b", "y"), ("b", "x"))
        assert tree.leaf_ids.tolist() == [3, 2, 4]

    def test_lex_orders(self, tree):
        assert [tree.paths[i] for i in tree.lex_order] == sorted(tree.paths)
        assert [tree.paths[i] for i in tree.depth_lex_order] == sorted(
            tree.paths, key=lambda p: (len(p), p)
        )

    @pytest.mark.parametrize(
        "name", ["parent", "depths", "child_start", "leaf_ids", "lex_order", "depth_lex_order"]
    )
    def test_arrays_are_read_only(self, name):
        array = getattr(small_tree(), name)
        with pytest.raises(ValueError):
            array[0] = 1
        with pytest.raises(ValueError):
            np.add(array, 1, out=array)


class TestTraversal:
    def test_iter_nodes_is_a_last_child_first_pre_order(self, tree):
        assert list(tree.iter_nodes()) == [
            NodeRecord((), 0, "All"),
            NodeRecord(("internet",), 1, "internet"),
            NodeRecord(("internet", "down"), 2, "down"),
            NodeRecord(("internet", "slow"), 2, "slow"),
            NodeRecord(("tv",), 1, "tv"),
            NodeRecord(("tv", "pixelation"), 2, "pixelation"),
            NodeRecord(("tv", "no-service"), 2, "no-service"),
            NodeRecord(("tv", "no-service", "no-sound"), 3, "no-sound"),
            NodeRecord(("tv", "no-service", "no-pic"), 3, "no-pic"),
        ]

    def test_records_are_immutable(self, tree):
        record = next(tree.iter_nodes())
        with pytest.raises(AttributeError):
            record.depth = 3

    def test_paths_at_depth_in_iter_nodes_order(self, tree):
        for depth in range(-1, tree.depth + 2):
            assert tree.paths_at_depth(depth) == [
                node.path for node in tree.iter_nodes() if node.depth == depth
            ]
        assert tree.paths_at_depth(1) == [("internet",), ("tv",)]

    def test_leaves_under(self, tree):
        assert tree.leaves_under() == [
            node.path for node in tree.iter_nodes() if not tree.children(node.path)
        ]
        assert tree.leaves_under(("tv",)) == [
            ("tv", "pixelation"),
            ("tv", "no-service", "no-sound"),
            ("tv", "no-service", "no-pic"),
        ]
        assert tree.leaves_under(("tv", "pixelation")) == [("tv", "pixelation")]

    def test_descendant_ids(self, tree):
        ids = tree.path_to_id
        assert tree.descendant_ids(ids[("tv",)]) == {
            ids[path] for path in tree.paths if path[:1] == ("tv",) and path != ("tv",)
        }
        assert tree.descendant_ids(ids[("internet", "down")]) == frozenset()
        assert tree.descendant_ids(0) == frozenset(range(1, tree.num_nodes))


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
        assert tree.typical_degree_at_level(0) == 0.0

    def test_typical_degree_is_the_median(self):
        leaves = [("a", "x"), ("b", "x"), ("b", "y"), ("c", "x"), ("c", "y"), ("c", "z")]
        # Level-2 degrees are 1, 2 and 3: the odd-count median is 2.
        assert HierarchyTree(leaves).typical_degree_at_level(2) == 2.0
        # Adding d (4 children) makes the count even: the mean of the two
        # middle degrees of 1, 2, 3, 4.
        grown = leaves + [("d", label) for label in ("s", "t", "u", "w")]
        assert HierarchyTree(grown).typical_degree_at_level(2) == 2.5
