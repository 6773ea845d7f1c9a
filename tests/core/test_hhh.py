"""Unit tests for :mod:`repro.core.hhh` (Definitions 1 and 2)."""

import pytest

from repro.core.hhh import accumulate_raw_weights, compute_shhh
from repro.hierarchy.tree import HierarchyTree


@pytest.fixture
def tree():
    return HierarchyTree(
        [
            ("a", "a1"),
            ("a", "a2"),
            ("b", "b1"),
            ("b", "b2"),
        ]
    )


class TestRawWeights:
    def test_leaf_counts_propagate_to_ancestors(self, tree):
        raw = accumulate_raw_weights(tree, {("a", "a1"): 3, ("a", "a2"): 2, ("b", "b1"): 1})
        assert raw[("a", "a1")] == 3
        assert raw[("a",)] == 5
        assert raw[("b",)] == 1
        assert raw[()] == 6

    def test_unknown_paths_ignored(self, tree):
        raw = accumulate_raw_weights(tree, {("zzz",): 10, ("a", "a1"): 1})
        assert ("zzz",) not in raw
        assert raw[()] == 1

    def test_zero_counts_skipped(self, tree):
        raw = accumulate_raw_weights(tree, {("a", "a1"): 0})
        assert raw == {}

    def test_interior_counts_supported(self, tree):
        raw = accumulate_raw_weights(tree, {("a",): 4})
        assert raw[("a",)] == 4
        assert raw[()] == 4


class TestHHH:
    """Definition 1's plain HHH set is the raw weights at or above θ."""

    @staticmethod
    def hhh(tree, counts, theta):
        return {p for p, w in accumulate_raw_weights(tree, counts).items() if w >= theta}

    def test_definition_one(self, tree):
        heavy = self.hhh(tree, {("a", "a1"): 6, ("a", "a2"): 5, ("b", "b1"): 2}, theta=5)
        # a1 (6), a (11), root (13) reach the threshold; a2 (5) also does.
        assert heavy == {("a", "a1"), ("a", "a2"), ("a",), ()}

    def test_threshold_above_everything(self, tree):
        assert self.hhh(tree, {("a", "a1"): 2}, theta=100) == set()

    def test_succinct_set_is_a_subset(self, tree):
        counts = {("a", "a1"): 6, ("a", "a2"): 5, ("b", "b1"): 2}
        assert compute_shhh(tree, counts, theta=5).shhh <= self.hhh(tree, counts, 5)


class TestSHHH:
    def test_leaf_heavy_hitter_discounted_from_parent(self, tree):
        result = compute_shhh(tree, {("a", "a1"): 10, ("a", "a2"): 2}, theta=5)
        assert ("a", "a1") in result.shhh
        # Parent a's modified weight only counts a2 (2) so it is not heavy.
        assert ("a",) not in result.shhh
        assert result.modified_weights[("a",)] == 2
        # Root gets a's residual weight 2, not heavy either.
        assert () not in result.shhh

    def test_parent_becomes_heavy_from_many_light_children(self, tree):
        result = compute_shhh(tree, {("a", "a1"): 3, ("a", "a2"): 3}, theta=5)
        assert result.shhh == {("a",)}
        assert result.modified_weights[("a",)] == 6

    def test_root_heavy_when_weight_spread_thin(self, tree):
        result = compute_shhh(
            tree, {("a", "a1"): 2, ("a", "a2"): 2, ("b", "b1"): 2, ("b", "b2"): 2}, theta=5
        )
        assert result.shhh == {()}
        assert result.modified_weights[()] == 8

    def test_both_levels_heavy(self, tree):
        result = compute_shhh(
            tree, {("a", "a1"): 10, ("a", "a2"): 7, ("b", "b1"): 1}, theta=5
        )
        assert ("a", "a1") in result.shhh
        assert ("a", "a2") in result.shhh
        # Parent a's modified weight is 0 after discounting both children.
        assert ("a",) not in result.shhh

    def test_empty_counts(self, tree):
        result = compute_shhh(tree, {}, theta=5)
        assert result.shhh == frozenset()
        assert result.modified_weights == {}

    def test_uniqueness_matches_bottom_up_fixed_point(self, tree):
        """The SHHH set is the unique fixed point of Definition 2."""
        counts = {("a", "a1"): 7, ("a", "a2"): 4, ("b", "b1"): 5, ("b", "b2"): 1}
        theta = 5
        result = compute_shhh(tree, counts, theta)
        # Verify the defining property directly: for every node, its modified
        # weight equals raw weight minus raw weight of heavy children subtrees
        # handled recursively, and membership corresponds to weight >= theta.
        raw = accumulate_raw_weights(tree, counts)
        for node in tree.iter_nodes():
            modified = result.modified_weights.get(node.path, 0.0)
            in_set = node.path in result.shhh
            assert in_set == (modified >= theta)

    def test_heavy_grandchild_under_light_child_is_discounted(self):
        """A heavy grandchild under a non-heavy child is discounted from the
        grandparent too: the modified weight is the raw weight minus the
        maximal heavy descendants, not minus heavy children only."""
        tree = HierarchyTree([("a", "b", "c"), ("a", "b", "d"), ("a", "e")])
        leaf_counts = {("a", "b", "c"): 10, ("a", "b", "d"): 2, ("a", "e"): 8}
        raw = accumulate_raw_weights(tree, leaf_counts)
        assert (raw[("a",)], raw[("a", "b")], raw[("a", "b", "c")]) == (20, 12, 10)
        result = compute_shhh(tree, leaf_counts, theta=10)
        assert result.shhh == {("a",), ("a", "b", "c")}
        assert result.modified_weights[("a", "b")] == 2
        assert result.modified_weights[("a",)] == 10
