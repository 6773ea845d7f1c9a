"""One :class:`HierarchyIndex` per tree, and only the index numbers the nodes.

Node ids are BFS positions held by the index alone; every tracker on a tree
shares the tree's one read-only index (:meth:`HierarchyIndex.of`), which is
freed with the last tracker that holds it and rebuilt only once the tree has
gained nodes.  A node's children are the id range
``child_start[n]:child_start[n + 1]``.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.ada import ADAAlgorithm
from repro.core.config import TiresiasConfig
from repro.core.sta import STAAlgorithm
from repro.engine.session import DetectionSession
from repro.hierarchy.builders import build_ccd_network_tree
from repro.hierarchy.index import HierarchyIndex
from repro.hierarchy.tree import HierarchyTree
from tests.hierarchy.test_index_sweep import build_tree, shapes


def small_tree() -> HierarchyTree:
    return HierarchyTree.from_leaf_paths([("a", "a1"), ("a", "a2"), ("b", "b1")])


def assert_layout(tree: HierarchyTree) -> None:
    """The index's ids, child ranges, parents and descendants against the
    tree's own structure."""
    index = HierarchyIndex.of(tree)
    nodes = list(tree.iter_nodes())
    assert tree.num_nodes == len(tree) == len(nodes) == index.num_nodes
    assert sorted(index.paths) == sorted(node.path for node in nodes)
    level, bfs = [tree.root], []
    while level:
        bfs += level
        level = [child for node in level for child in node.children.values()]
    assert index.paths == [node.path for node in bfs]
    for node_id, path in enumerate(index.paths):
        node = tree.node(path)
        children = range(index.child_start[node_id], index.child_start[node_id + 1])
        assert [index.paths[c] for c in children] == [
            child.path for child in node.children.values()
        ]
        assert all(index.parent[c] == node_id for c in children)
        assert index.descendant_ids(node_id) == {
            index.path_to_id[d.path] for d in node.iter_subtree() if d is not node
        }


@pytest.fixture
def built(monkeypatch):
    """The trees :class:`HierarchyIndex` is constructed on, in call order."""
    trees = []
    init = HierarchyIndex.__init__

    def counting_init(self, tree):
        trees.append(tree)
        init(self, tree)

    monkeypatch.setattr(HierarchyIndex, "__init__", counting_init)
    return trees


class TestOneIndexPerTree:
    def test_ada_and_sta_share_the_index(self):
        tree, config = small_tree(), TiresiasConfig()
        assert ADAAlgorithm(tree, config)._index is STAAlgorithm(tree, config)._index

    def test_two_sessions_build_one_index(self, built):
        tree = small_tree()
        first = DetectionSession(tree, TiresiasConfig(), name="first")
        second = DetectionSession(tree, TiresiasConfig(), algorithm="sta", name="second")
        assert built == [tree]
        assert first.algorithm._index is second.algorithm._index

    def test_reconfigured_and_shadow_sessions_share_the_index(self, built):
        tree = small_tree()
        session = DetectionSession(tree, TiresiasConfig())
        index = session.algorithm._index
        session.reconfigure(replace(TiresiasConfig(), difference_threshold=3.0))
        shadow = session.start_shadow(replace(TiresiasConfig(), theta=5.0))
        session.promote_shadow()
        assert built == [tree]
        assert session.tree is shadow.tree is tree
        assert session.algorithm._index is index

    def test_the_index_goes_with_its_last_holder(self):
        # Without the cyclic collector: the tree's nodes form reference
        # cycles, but the index must not wait for them.
        tree = small_tree()
        gc.disable()
        try:
            session = DetectionSession(tree, TiresiasConfig())
            session.reconfigure(replace(TiresiasConfig(), difference_threshold=3.0))
            ref = weakref.ref(session.algorithm._index)
            shadow = session.start_shadow(TiresiasConfig())
            del session
            assert ref() is shadow.algorithm._index
            del shadow
            assert ref() is None
            restored = DetectionSession.from_state_dict(
                DetectionSession(tree, TiresiasConfig()).state_dict()
            )
            ref = weakref.ref(restored.algorithm._index)
            del restored
            assert ref() is None
        finally:
            gc.enable()
        assert HierarchyIndex.of(tree).num_nodes == tree.num_nodes

    def test_concurrent_lookups_build_one_index(self, built):
        tree = build_ccd_network_tree(seed=0, scale=0.3, max_leaves=333)
        start = threading.Barrier(8)
        found = []

        def look_up():
            start.wait(timeout=10)
            found.append(HierarchyIndex.of(tree))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=look_up) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(found) == 8
        assert built == [tree]
        assert all(index is found[0] for index in found)

    def test_a_grown_tree_gets_a_new_index(self):
        tree = small_tree()
        before = HierarchyIndex.of(tree)
        assert HierarchyIndex.of(tree) is before
        tree.add_leaf(("c", "c1"))
        after = HierarchyIndex.of(tree)
        assert after is not before
        assert after.num_nodes == before.num_nodes + 2
        assert set(after.path_to_id) - set(before.path_to_id) == {("c",), ("c", "c1")}
        assert HierarchyIndex.of(tree) is after

    def test_the_index_does_not_keep_its_tree_alive(self):
        tree = small_tree()
        HierarchyIndex.of(tree)
        ref = weakref.ref(tree)
        del tree
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("name", ["parent", "depths", "lex_order", "depth_lex_order"])
    def test_arrays_are_read_only(self, name):
        array = getattr(HierarchyIndex.of(small_tree()), name)
        with pytest.raises(ValueError):
            array[0] = 1
        with pytest.raises(ValueError):
            np.add(array, 1, out=array)

    def test_the_tree_holds_no_ids(self):
        tree = small_tree()
        HierarchyIndex.of(tree)
        assert not any(hasattr(node, "index") for node in tree.iter_nodes())


class TestChildRanges:
    def test_generated_ragged_tree(self):
        tree = build_ccd_network_tree(seed=0, scale=0.3, max_leaves=333)
        degrees = {len(node.children) for node in tree.iter_nodes() if node.children}
        assert len(degrees) > 3  # ragged: the degrees differ
        assert_layout(tree)

    @settings(max_examples=60, deadline=None)
    @given(shape=shapes)
    def test_any_shape(self, shape):
        assert_layout(build_tree(shape))
