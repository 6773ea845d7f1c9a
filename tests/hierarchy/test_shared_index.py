"""The tree is its own index: one set of frozen arrays per tree, no cycles.

Node ids are BFS positions; a node's children are the id range
``child_start[n]:child_start[n + 1]``.  Every tracker on a tree — ADA or
STA, reconfigured or shadow — sweeps the tree's own arrays, so nothing is
built per session.  The tree keeps no object per node and holds no
reference cycle: a dropped tree, and a dropped session with it, is freed by
reference counting, with the cyclic collector switched off.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.core.ada import ADAAlgorithm
from repro.core.config import ForecastConfig, TiresiasConfig
from repro.core.sta import STAAlgorithm
from repro.engine.session import DetectionSession
from repro.hierarchy.builders import build_ccd_network_tree
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.record import OperationalRecord
from tests.hierarchy.test_index_sweep import build_tree, shapes


def small_tree() -> HierarchyTree:
    return HierarchyTree([("a", "a1"), ("a", "a2"), ("b", "b1")])


def assert_layout(tree: HierarchyTree) -> None:
    """Ids, child ranges, parents and descendants against a model built
    straight from the leaf paths: children in first-seen order, numbered
    level by level."""
    children: dict[tuple, list[tuple]] = {(): []}
    for leaf in tree.leaf_paths():
        for depth in range(1, len(leaf) + 1):
            node = leaf[:depth]
            if node not in children:
                children[node] = []
                children[node[:-1]].append(node)
    bfs = [()]
    for node in bfs:
        bfs.extend(children[node])
    assert list(tree.paths) == bfs
    assert tree.num_nodes == len(tree) == len(list(tree.iter_nodes())) == len(bfs)
    for node_id, path in enumerate(tree.paths):
        below = range(tree.child_start[node_id], tree.child_start[node_id + 1])
        assert [tree.paths[c] for c in below] == children[path] == tree.children(path)
        assert all(tree.parent[c] == node_id for c in below)
        assert tree.descendant_ids(node_id) == {
            tree.path_to_id[other]
            for other in bfs
            if len(other) > len(path) and other[: len(path)] == path
        }


def records(tree: HierarchyTree, units: int) -> list[OperationalRecord]:
    leaves = tree.leaf_paths()
    return [
        OperationalRecord(unit * 900.0 + i * 90.0, leaves[(unit + i) % len(leaves)])
        for unit in range(units)
        for i in range(6)
    ]


CONFIG = TiresiasConfig(
    theta=2.0,
    window_units=6,
    reference_levels=1,
    forecast=ForecastConfig(season_lengths=(2,), fallback_alpha=0.3),
)


@pytest.fixture
def built(monkeypatch):
    """The trees constructed while a test runs, in call order."""
    trees = []
    init = HierarchyTree.__init__

    def counting_init(self, *args, **kwargs):
        trees.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HierarchyTree, "__init__", counting_init)
    return trees


class TestOneTreePerSession:
    def test_ada_and_sta_sweep_the_trees_own_arrays(self):
        tree = small_tree()
        assert ADAAlgorithm(tree, CONFIG).tree is STAAlgorithm(tree, CONFIG).tree is tree

    def test_sessions_build_nothing_over_the_tree(self, built):
        tree = small_tree()
        del built[:]
        first = DetectionSession(tree, CONFIG, name="first")
        second = DetectionSession(tree, CONFIG, algorithm="sta", name="second")
        first.process_stream(records(tree, 4))
        second.process_stream(records(tree, 4))
        assert built == []
        assert first.algorithm.tree is second.algorithm.tree is tree

    def test_reconfigured_and_shadow_sessions_share_the_tree(self, built):
        tree = small_tree()
        del built[:]
        session = DetectionSession(tree, CONFIG)
        session.reconfigure(replace(CONFIG, difference_threshold=3.0))
        shadow = session.start_shadow(replace(CONFIG, theta=5.0))
        session.promote_shadow()
        assert built == []
        assert session.tree is shadow.tree is session.algorithm.tree is tree


class TestNoCycles:
    """With the cyclic collector off, everything below is freed the moment
    its last reference goes."""

    @pytest.fixture(autouse=True)
    def collector_off(self):
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    @pytest.mark.parametrize("algorithm", ["ada", "sta"])
    def test_a_dropped_tree_and_session_leave_nothing_to_collect(self, algorithm):
        tree = build_ccd_network_tree(seed=0, scale=0.3, max_leaves=333)
        tree.descendant_ids(1)  # fill the memo too
        session = DetectionSession(tree, CONFIG, algorithm=algorithm)
        session.process_stream(records(tree, 12))
        session.flush()
        restored = DetectionSession.from_state_dict(session.state_dict())
        del tree, session, restored
        assert gc.collect() == 0

    def test_the_tree_goes_with_its_last_session(self):
        tree = small_tree()
        session = DetectionSession(tree, CONFIG)
        session.reconfigure(replace(CONFIG, difference_threshold=3.0))
        shadow = session.start_shadow(CONFIG)
        ref = weakref.ref(tree)
        del tree, session
        assert ref() is shadow.tree
        del shadow
        assert ref() is None

    def test_a_restored_tree_goes_with_its_session(self):
        state = DetectionSession(small_tree(), CONFIG).state_dict()
        restored = DetectionSession.from_state_dict(state)
        ref = weakref.ref(restored.tree)
        del restored
        assert ref() is None


class TestChildRanges:
    def test_generated_ragged_tree(self):
        tree = build_ccd_network_tree(seed=0, scale=0.3, max_leaves=333)
        degrees = set((tree.child_start[1:] - tree.child_start[:-1]).tolist()) - {0}
        assert len(degrees) > 3  # ragged: the degrees differ
        assert_layout(tree)

    @settings(max_examples=60, deadline=None)
    @given(shape=shapes)
    def test_any_shape(self, shape):
        assert_layout(build_tree(shape))
