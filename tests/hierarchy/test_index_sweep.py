"""The batch hierarchy sweep against the scalar reference, row by row.

:meth:`HierarchyIndex.sweep` computes raw weights, modified weights and
succinct heavy hitter membership for every row of a count matrix at once
(``np.add.reduceat`` over BFS-contiguous child ranges).  Its oracle is the
scalar pair :func:`repro.core.hhh.accumulate_raw_weights` /
:func:`repro.core.hhh.compute_shhh`, applied to each row on its own — on
generated ragged trees (leaves at different depths, single-child chains, a
depth-1-only tree, a root-only tree), with counts on interior nodes, all-zero
rows between busy ones and ``modified == theta`` exactly.

:class:`TestSweptClose` then checks what ADA adds on top — the
``track_root`` / ``allow_root_heavy`` / ``min_heavy_depth`` masks, applied
after the sweep — by closing swept rows against the per-path reference
(:class:`repro.testing.reference.ReferenceADA`).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ada import ADAAlgorithm
from repro.core.config import ForecastConfig, TiresiasConfig
from repro.core.hhh import accumulate_raw_weights, compute_shhh
from repro.hierarchy.index import HierarchyIndex
from repro.hierarchy.tree import HierarchyTree
from repro.testing.reference import ReferenceADA

# A tree shape is a nested list: ``[]`` is a leaf, ``[[], [[]]]`` a node with
# a leaf child and a one-child chain.  The empty shape is the root-only tree.
shapes = st.recursive(
    st.just([]), lambda children: st.lists(children, min_size=1, max_size=4), max_leaves=24
)


def build_tree(shape) -> HierarchyTree:
    tree = HierarchyTree("All")

    def walk(node, prefix):
        for position, child in enumerate(node):
            path = (*prefix, f"n{len(prefix)}-{position}")
            if child:
                walk(child, path)
            else:
                tree.add_leaf(path)

    walk(shape, ())
    tree.validate()
    return tree


def reference_rows(tree, index, rows, theta):
    """The scalar oracle's ``(raw, modified, heavy)`` per row, densified."""
    width = index.num_nodes
    raw = np.zeros((len(rows), width))
    modified = np.zeros((len(rows), width))
    heavy = np.zeros((len(rows), width), dtype=bool)
    for position, counts in enumerate(rows):
        weights = accumulate_raw_weights(tree, counts)
        result = compute_shhh(tree, counts, theta, raw=weights)
        for path, weight in weights.items():
            raw[position, index.path_to_id[path]] = weight
        for path, weight in result.modified_weights.items():
            modified[position, index.path_to_id[path]] = weight
        for path in result.shhh:
            heavy[position, index.path_to_id[path]] = True
    return raw, modified, heavy


def count_matrix(index, rows):
    return np.concatenate([index.count_rows(row) for row in rows])


@st.composite
def tree_and_rows(draw):
    tree = build_tree(draw(shapes))
    nodes = [node.path for node in tree.iter_nodes()]  # interior nodes and the root too
    row = st.dictionaries(
        st.sampled_from(nodes + [("nowhere",), ("n0-0", "nowhere")]),
        st.integers(min_value=0, max_value=9),
        max_size=12,
    )
    # U in {1, 2, many}, with all-zero rows between busy ones.
    rows = draw(
        st.one_of(
            st.lists(row, min_size=1, max_size=1),
            st.lists(row, min_size=2, max_size=2),
            st.lists(st.one_of(st.just({}), row), min_size=3, max_size=20),
        )
    )
    return tree, rows


class TestSweepAgainstScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(case=tree_and_rows(), theta=st.integers(min_value=1, max_value=12))
    def test_every_row_matches_the_scalar_reference(self, case, theta):
        tree, rows = case
        index = HierarchyIndex(tree)
        raw, modified, heavy = index.sweep(count_matrix(index, rows), float(theta))
        want_raw, want_modified, want_heavy = reference_rows(tree, index, rows, theta)
        assert raw.tobytes() == want_raw.tobytes()
        assert modified.tobytes() == want_modified.tobytes()
        assert heavy.tobytes() == want_heavy.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(case=tree_and_rows(), theta=st.integers(min_value=1, max_value=12))
    def test_rows_do_not_see_each_other(self, case, theta):
        """A row swept among others equals the same row swept alone."""
        tree, rows = case
        index = HierarchyIndex(tree)
        together = index.sweep(count_matrix(index, rows), float(theta))
        for position, row in enumerate(rows):
            alone = index.sweep(index.count_rows(row), float(theta))
            for whole, single in zip(together, alone):
                assert whole[position].tobytes() == single[0].tobytes()

    def test_modified_weight_equal_to_theta_is_heavy(self):
        tree = HierarchyTree.from_leaf_paths([("a", "a1"), ("a", "a2"), ("b",)])
        index = HierarchyIndex(tree)
        ids = index.path_to_id
        rows = [{("a", "a1"): 2, ("a", "a2"): 2, ("b",): 3}, {("a", "a1"): 4, ("b",): 4}]
        raw, modified, heavy = index.sweep(count_matrix(index, rows), 4.0)
        # Row 0: neither leaf reaches 4, their parent does exactly; b stays light
        # and the root is left with b's 3.
        assert modified[0, ids[("a",)]] == 4.0 and heavy[0, ids[("a",)]]
        assert not heavy[0, ids[("a", "a1")]] and not heavy[0, ids[("b",)]]
        assert modified[0, 0] == 3.0 and not heavy[0, 0]
        # Row 1: the leaf takes it, the parent is left with nothing.
        assert heavy[1, ids[("a", "a1")]] and modified[1, ids[("a",)]] == 0.0
        assert heavy[1, ids[("b",)]] and raw[1, 0] == 8.0 and modified[1, 0] == 0.0

    def test_root_only_and_depth_one_only_trees(self):
        root_only = HierarchyIndex(HierarchyTree("All"))
        raw, modified, heavy = root_only.sweep(
            count_matrix(root_only, [{(): 5}, {}, {(): 2}]), 5.0
        )
        assert raw.tolist() == modified.tolist() == [[5.0], [0.0], [2.0]]
        assert heavy.tolist() == [[True], [False], [False]]
        flat = HierarchyIndex(HierarchyTree.from_leaf_paths([("a",), ("b",), ("c",)]))
        raw, modified, heavy = flat.sweep(count_matrix(flat, [{("a",): 6, ("b",): 1}]), 5.0)
        assert raw.tolist() == [[7.0, 6.0, 1.0, 0.0]]
        assert modified.tolist() == [[1.0, 6.0, 1.0, 0.0]]
        assert heavy.tolist() == [[False, True, False, False]]


MASK_CONFIGS = [
    dict(track_root=True, allow_root_heavy=True),
    dict(track_root=False, allow_root_heavy=True),
    dict(track_root=False, allow_root_heavy=False),
    dict(track_root=False, allow_root_heavy=False, min_heavy_depth=2),
    dict(track_root=False, allow_root_heavy=False, min_heavy_depth=3),
]


class TestSweptClose:
    """``sweep_timeunits`` + ``close_swept`` == the reference's
    ``process_timeunit`` per unit, masks included."""

    @settings(max_examples=40, deadline=None)
    @given(
        case=tree_and_rows(),
        theta=st.integers(min_value=1, max_value=8),
        masks=st.sampled_from(MASK_CONFIGS),
    )
    def test_swept_rows_close_like_the_reference(self, case, theta, masks):
        tree, rows = case
        config = TiresiasConfig(
            theta=float(theta),
            window_units=8,
            reference_levels=1,
            forecast=ForecastConfig(season_lengths=(2,), fallback_alpha=0.4),
            **masks,
        )
        algo = ADAAlgorithm(tree, config)
        index = algo._index
        swept = algo.sweep_timeunits(count_matrix(index, rows))
        assert len(swept) == len(rows)
        got = [algo.close_swept(row, unit) for unit, row in enumerate(swept)]
        assert algo.close_profile()["dense_close_units"] == len(rows)
        oracle = ReferenceADA(tree, config)
        want = [oracle.process_timeunit(counts, unit) for unit, counts in enumerate(rows)]
        assert got == want
