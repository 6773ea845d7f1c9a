"""Vector-tier adaptation engine vs the python-tier scalar walk.

The id-based planner (:mod:`repro.core.adapt`) plus the batched application
path in :class:`~repro.core.ada.ADAAlgorithm` must reproduce the scalar
``_adapt`` walk bit for bit: identical per-timeunit results (heavy hitters,
actuals, forecasts, anomalies), identical split/merge counters and — up to
the row order of the split statistics — identical checkpoint states.  The
reference is the python tier, entered with the whole-process
:func:`tests.conftest.python_tier` fixture.
"""

import inspect
import json
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ada import ADAAlgorithm, _RefStore
from repro.core.adapt import DROP, FOLD, FRESH, MOVE, SPLIT, AdaptationPlan, plan_adaptation
from repro.core.config import ForecastConfig, TiresiasConfig
from repro.core.timeseries import NodeTimeSeries
from repro.exceptions import CheckpointError
from repro.forecasting.bank import ForecasterBank
from repro.hierarchy.tree import HierarchyTree
from tests.conftest import canonical_checkpoint, python_tier

LEAVES = [
    ("a", "a1"),
    ("a", "a2"),
    ("a", "a3"),
    ("b", "b1", "x"),
    ("b", "b1", "y"),
    ("b", "b2"),
    ("c", "c1"),
]

#: The tier under test (the vector tier, unless the process started on the
#: python tier) and the reference it is compared against.
TIERS = {"vector": nullcontext, "python": python_tier}


def make_tree():
    return HierarchyTree.from_leaf_paths(LEAVES)


def make_config(**overrides):
    defaults = dict(
        theta=4.0,
        ratio_threshold=1.8,
        difference_threshold=3.0,
        window_units=12,
        track_root=False,
        allow_root_heavy=False,
        reference_levels=2,
        split_rule="long-term-history",
        forecast=ForecastConfig(season_lengths=(3,), fallback_alpha=0.4),
    )
    defaults.update(overrides)
    return TiresiasConfig(**defaults)


def run_units(algo, unit_sequence, first_unit=0):
    """Feed ``unit_sequence`` to ``algo``; return its comparable outputs."""
    results = []
    for i, counts in enumerate(unit_sequence):
        results.append(algo.process_timeunit(counts, first_unit + i))
        assert_registry_consistent(algo)
    return {
        "series_order": list(algo.series),
        "results": [
            (r.timeunit, r.heavy_hitters, r.actuals, r.forecasts, r.anomalies)
            for r in results
        ],
        "state": canonical_checkpoint(algo.state_dict(), row_sorted=True),
        "splits": algo.split_operations,
        "merges": algo.merge_operations,
    }


def assert_registry_consistent(algo):
    """One live bank row per tracked series, each referenced exactly once,
    and the ``series`` mapping, its handles and the id registry agree."""
    tracked = list(algo.series)
    assert len(algo.bank) == len(algo.series) == len(tracked)
    rows = [algo.series[path].forecaster.row for path in tracked]
    assert len(set(rows)) == len(rows)
    assert all(row >= 0 for row in rows)
    assert [path for path, _series in algo.series.items()] == tracked
    if algo._index is not None:
        ids = [algo._index.path_to_id[path] for path in tracked]
        assert list(algo._series_ids) == ids
        assert list(algo._series_ids.values()) == rows
        assert algo._series_rows[ids].tolist() == rows
        assert int(algo._series_mask.sum()) == len(ids)


def run_tiers(tree, config, unit_sequence):
    """Run ``unit_sequence`` once per tier; return outputs keyed by tier."""
    outputs = {}
    for name, tier in TIERS.items():
        with tier():
            outputs[name] = run_units(ADAAlgorithm(tree, config), unit_sequence)
    return outputs


def assert_equivalent(tree, config, unit_sequence):
    outputs = run_tiers(tree, config, unit_sequence)
    assert outputs["vector"] == outputs["python"]


counts_strategy = st.dictionaries(
    st.sampled_from(LEAVES),
    st.integers(min_value=0, max_value=12),
    max_size=len(LEAVES),
)

sequence_strategy = st.lists(counts_strategy, min_size=1, max_size=14)


class TestPlannerEquivalence:
    """Random heavy-set delta sequences: planner == python-tier scalar walk."""

    @settings(max_examples=60, deadline=None)
    @given(sequence=sequence_strategy, rule=st.sampled_from(
        ["uniform", "last-time-unit", "long-term-history", "ewma"]
    ))
    def test_random_sequences(self, sequence, rule):
        assert_equivalent(make_tree(), make_config(split_rule=rule), sequence)

    @settings(max_examples=25, deadline=None)
    @given(counts=counts_strategy, repeats=st.integers(min_value=2, max_value=8))
    def test_zero_churn_timeunits(self, counts, repeats):
        """Identical consecutive timeunits: the stable fast path must be
        exercised and stay bit-identical."""
        tree = make_tree()
        config = make_config()
        sequence = [counts] * repeats
        assert_equivalent(tree, config, sequence)
        algo = ADAAlgorithm(tree, config)
        for unit, c in enumerate(sequence):
            algo.process_timeunit(c, unit)
        if algo._index is not None and counts:
            assert algo.fastpath_units >= repeats - 1

    @settings(max_examples=25, deadline=None)
    @given(rounds=st.integers(min_value=1, max_value=5))
    def test_full_turnover_timeunits(self, rounds):
        """Alternating disjoint heavy sets (full turnover every timeunit)."""
        group_a = {("a", "a1"): 9, ("a", "a2"): 7}
        group_b = {("b", "b1", "x"): 9, ("c", "c1"): 8}
        sequence = []
        for _ in range(rounds):
            sequence.extend([group_a, group_b, {}])
        assert_equivalent(make_tree(), make_config(), sequence)

    def test_track_root_and_reference_corrections(self):
        sequence = [
            {("a", "a1"): 8, ("b", "b1", "x"): 6},
            {("a", "a1"): 2, ("a", "a2"): 7},
            {("b", "b1", "x"): 1, ("b", "b1", "y"): 9, ("b", "b2"): 5},
            {},
            {("a", "a1"): 8, ("a", "a2"): 8, ("a", "a3"): 8},
        ]
        assert_equivalent(
            make_tree(),
            make_config(track_root=True, allow_root_heavy=True),
            sequence,
        )

    @pytest.mark.parametrize("source_tier", list(TIERS))
    def test_restore_resumes_identically_across_tiers(self, source_tier):
        """A snapshot written on either tier resumes identically on both."""
        tree = make_tree()
        config = make_config()
        warm = [
            {("a", "a1"): 6, ("b", "b2"): 5},
            {("a", "a2"): 7, ("c", "c1"): 4},
            {("a", "a1"): 6, ("a", "a2"): 1},
        ]
        tail = [
            {("b", "b1", "x"): 8},
            {("a", "a1"): 5, ("b", "b1", "x"): 8},
            {},
        ]
        with TIERS[source_tier]():
            source = ADAAlgorithm(tree, config)
            for unit, counts in enumerate(warm):
                source.process_timeunit(counts, unit)
            snapshot = json.dumps(source.state_dict())
        outputs = {}
        for name, tier in TIERS.items():
            with tier():
                algo = ADAAlgorithm(tree, config)
                algo.load_state_dict(json.loads(snapshot))
                outputs[name] = run_units(algo, tail, first_unit=len(warm))
        assert outputs["vector"] == outputs["python"]


class TestPlannerInternals:
    def test_plan_matches_series_state_transition(self):
        tree = make_tree()
        config = make_config()
        algo = ADAAlgorithm(tree, config)
        if algo._index is None:
            pytest.skip("vector backend unavailable")
        algo.process_timeunit({("a", "a1"): 9, ("b", "b2"): 6}, 0)
        index = algo._index
        heavy_mask = algo._series_mask.copy()
        plan = plan_adaptation(
            index,
            algo._series_mask,
            heavy_mask,
            algo._view_by_id,
            algo.split_rule,
            algo._ref_has_id,
        )
        assert not plan.ops  # no delta -> empty plan
        heavy_mask = algo._series_mask.copy()
        heavy_mask[index.path_to_id[("a", "a1")]] = False
        heavy_mask[index.path_to_id[("c", "c1")]] = True
        plan = plan_adaptation(
            index,
            algo._series_mask,
            heavy_mask,
            algo._view_by_id,
            algo.split_rule,
            algo._ref_has_id,
        )
        kinds = [op[0] for op in plan.ops]
        assert plan.num_merges >= 1
        assert plan.num_splits == kinds.count("split")
        assert plan.num_merges == sum(
            1 for k in kinds if k in ("fold", "move", "drop")
        )


class TestBankOps:
    def setup_bank(self, force_scalar=False, n=6):
        config = ForecastConfig(season_lengths=(3,), fallback_alpha=0.4)
        bank = ForecasterBank(config, force_scalar=force_scalar)
        rows = []
        for i in range(n):
            row = bank.new_row()
            for step in range(10):
                bank.observe(row, 5.0 + i + step % 3)
            rows.append(row)
        return bank, rows

    @pytest.mark.parametrize("force_scalar", [False, True])
    def test_split_row_matches_two_clones(self, force_scalar):
        bank, rows = self.setup_bank(force_scalar)
        other, orows = self.setup_bank(force_scalar)
        ratio = 0.3
        child = bank.split_row(rows[0], ratio)
        ref_child = other.clone_row(orows[0], ratio)
        ref_parent = other.clone_row(orows[0], 1.0 - ratio)
        assert bank.row_state_dict(child) == other.row_state_dict(ref_child)
        assert bank.row_state_dict(rows[0]) == other.row_state_dict(ref_parent)

    @pytest.mark.parametrize("force_scalar", [False, True])
    def test_fold_row_matches_add_state(self, force_scalar):
        """One MERGE pair per destination, several destinations."""
        bank, rows = self.setup_bank(force_scalar)
        other, orows = self.setup_bank(force_scalar)
        for dst, src in zip(rows[:3], rows[3:]):
            bank.fold_row(dst, src)
            bank.free_row(src)
        for dst, src in zip(orows[:3], orows[3:]):
            other.add_state(dst, other, src)
            other.free_row(src)
        for row, ref in zip(rows[:3], orows[:3]):
            assert bank.row_state_dict(row) == other.row_state_dict(ref)
        assert len(bank) == len(other) == 3

    def test_fold_row_adopt_branch(self):
        """Destinations that are fresh (inactive) rows take a copy."""
        bank, rows = self.setup_bank(n=5)
        scalar, srows = self.setup_bank(force_scalar=True, n=5)
        fresh = [bank.new_row() for _ in range(5)]
        sfresh = [scalar.new_row() for _ in range(5)]
        for dst, src in zip(fresh, rows):
            bank.fold_row(dst, src)
        for dst, src in zip(sfresh, srows):
            scalar.add_state(dst, scalar, src)
        for row, ref in zip(fresh, sfresh):
            assert bank.row_state_dict(row) == scalar.row_state_dict(ref)

    def test_ops_on_warmup_history_rows(self):
        """Rows still in warm-up carry their history through SPLIT and MERGE."""
        config = ForecastConfig(season_lengths=(4,), fallback_alpha=0.4)
        bank = ForecasterBank(config)
        scalar = ForecasterBank(config, force_scalar=True)
        for target in (bank, scalar):
            rows = [target.new_row() for _ in range(4)]
            for step, row in enumerate(rows):
                for _ in range(step + 1):  # unequal history lengths
                    target.observe(row, 3.0 + step)
            child = target.split_row(rows[0], 0.25)
            target.fold_row(rows[2], rows[3])
            target.fold_row(rows[3], rows[1])
            target.fold_row(child, rows[0])
        for row in (*rows, child):
            snapshot = bank.row_state_dict(row)
            assert snapshot == scalar.row_state_dict(row)
            assert snapshot["history"]


class TestRefStore:
    def test_ring_round_trip(self):
        store = _RefStore(4)
        paths = (("a",), ("b",))
        for value in range(6):
            store.append_column(paths, [float(value), float(value * 10)])
        assert store.emit() == [
            [["a"], [2.0, 3.0, 4.0, 5.0]],
            [["b"], [20.0, 30.0, 40.0, 50.0]],
        ]
        assert store.has_values(("a",))
        assert not store.has_values(("z",))
        assert store.total_len() == 8
        clone = _RefStore(4)
        clone.load(store.emit())
        assert clone.emit() == store.emit()
        assert list(clone.as_dict()[("b",)]) == [20.0, 30.0, 40.0, 50.0]

    def test_ragged_load_falls_back(self):
        store = _RefStore(8)
        store.load([[["a"], [1.0, 2.0]], [["b"], [3.0]]])
        assert store.emit() == [[["a"], [1.0, 2.0]], [["b"], [3.0]]]
        store.append_column((("a",), ("b",)), [5.0, 6.0])
        assert store.emit() == [[["a"], [1.0, 2.0, 5.0]], [["b"], [3.0, 6.0]]]

    def test_empty_load_keeps_ring_mode_usable(self):
        store = _RefStore(4)
        store.load([])
        store.append_column((("a",),), [1.0])
        assert store.emit() == [[["a"], [1.0]]]


class TestRegistryGuards:
    """The vector tiers' ``series`` is a view over row numbers: every plan op
    keeps it equal to the python tier's dict, and a handle never outlives the
    path it was taken for."""

    #: Hits every op kind the planner emits: FRESH (new top-level subtree),
    #: SPLIT with and without a reference correction (depth <= 2 / depth 3),
    #: FOLD (leaf into its heavy parent) and DROP (no heavy ancestor left).
    #: MOVE is its mirror of the scalar walk's "target holds no series yet"
    #: arm, which the SPLIT phase pre-empts; the random plans below emit it.
    EVERY_OP = [
        {("a", "a1"): 9, ("b", "b1", "x"): 9, ("b", "b1", "y"): 9},
        {("a", "a1"): 2, ("a", "a2"): 2, ("b", "b1", "x"): 3, ("b", "b1", "y"): 2},
        {("a", "a1"): 9, ("a", "a2"): 9, ("b", "b1", "x"): 9, ("b", "b1", "y"): 9},
        {("a", "a1"): 9, ("a", "a2"): 2, ("a", "a3"): 2, ("b", "b2"): 3},
        {("c", "c1"): 9},
        {("a", "a1"): 1, ("b", "b1", "x"): 9, ("b", "b1", "y"): 1, ("b", "b2"): 3},
        {},
    ]

    def test_every_op_kind_keeps_the_view_equal_to_the_python_tier_dict(self):
        tree, config = make_tree(), make_config()
        algo = ADAAlgorithm(tree, config)
        if algo._index is None:
            pytest.skip("vector backend unavailable")
        seen = set()
        apply_plan = algo._apply_plan

        def recording_apply(plan):
            seen.update(op[0] if op[0] != "split" else ("split", op[4]) for op in plan.ops)
            apply_plan(plan)

        algo._apply_plan = recording_apply
        vector = run_units(algo, self.EVERY_OP)
        assert seen == {"fresh", ("split", True), ("split", False), "fold", "drop"}
        with python_tier():
            python = run_units(ADAAlgorithm(tree, config), self.EVERY_OP)
        assert vector == python

    def test_series_view_is_read_only_and_hands_out_one_handle_per_path(self):
        algo = ADAAlgorithm(make_tree(), make_config())
        if algo._index is None:
            pytest.skip("vector backend unavailable")
        algo.process_timeunit({("a", "a1"): 9, ("b", "b2"): 6}, 0)
        assert ("a", "a1") in algo.series and ("a", "zz") not in algo.series
        assert ["a", "a1"] not in list(algo.series)
        handle = algo.series[("a", "a1")]
        assert algo.series[("a", "a1")] is handle
        assert algo.series.get(("a", "zz")) is None
        with pytest.raises(KeyError):
            algo.series[("a", "zz")]
        with pytest.raises(TypeError):
            algo.series[("a", "a2")] = handle
        with pytest.raises(TypeError):
            del algo.series[("a", "a1")]
        assert algo.series == {path: algo.series[path] for path in algo.series}

    def test_handle_of_a_dropped_path_is_inert(self):
        """A handle taken before a plan that drops its path must neither read
        nor release the row's next tenant (double-``release()`` aliasing)."""
        from repro.exceptions import ConfigurationError

        algo = ADAAlgorithm(make_tree(), make_config())
        if algo._index is None:
            pytest.skip("vector backend unavailable")
        algo.process_timeunit({("a", "a1"): 9, ("c", "c1"): 9}, 0)
        dropped = algo.series[("c", "c1")]
        window = dropped.actual
        kept = algo.series[("a", "a1")]
        freed_row = dropped.forecaster.row
        # c1 goes (DROP: no heavy ancestor); b2 arrives and recycles the row.
        algo.process_timeunit({("a", "a1"): 9}, 1)
        algo.process_timeunit({("a", "a1"): 9, ("b", "b2"): 9}, 2)
        assert ("c", "c1") not in algo.series
        assert algo.series[("b", "b2")].forecaster.row == freed_row
        live = len(algo.bank)
        dropped.release()
        dropped.release()
        assert len(algo.bank) == live
        with pytest.raises(ConfigurationError, match="released"):
            window.tolist()
        with pytest.raises(ConfigurationError, match="released"):
            dropped.append(1.0)
        assert algo.series[("a", "a1")] is kept and len(kept) == 3
        assert_registry_consistent(algo)

    def test_handle_follows_a_moved_series(self):
        algo = ADAAlgorithm(make_tree(), make_config())
        if algo._index is None:
            pytest.skip("vector backend unavailable")
        algo.process_timeunit({("b", "b1", "x"): 9}, 0)
        handle = algo.series[("b", "b1", "x")]
        row = handle.forecaster.row
        ids = algo._index.path_to_id
        algo._apply_plan(
            AdaptationPlan([(MOVE, ids[("b", "b1", "x")], ids[("b", "b1")])], 0, 1)
        )
        assert list(algo.series) == [("b", "b1")]
        assert algo.series[("b", "b1")] is handle
        assert handle.forecaster.row == row and len(handle) == 1
        assert_registry_consistent(algo)

    WARM = [
        {("a", "a1"): 9, ("a", "a2"): 5, ("b", "b1", "x"): 6, ("c", "c1"): 2},
        {("a", "a1"): 7, ("a", "a3"): 5, ("b", "b1", "y"): 6, ("b", "b2"): 4},
        {("a", "a2"): 8, ("b", "b1", "x"): 5, ("b", "b1", "y"): 5, ("c", "c1"): 6},
        {("a", "a1"): 6, ("a", "a2"): 6, ("b", "b2"): 7, ("c", "c1"): 5},
    ]
    TAIL = [
        {("a", "a1"): 8, ("b", "b1", "x"): 7, ("c", "c1"): 1},
        {("a", "a3"): 6, ("b", "b2"): 6},
        {},
    ]

    @staticmethod
    def draw_plan(data, index, tracked):
        """A random op list that is valid against the ordered id list
        ``tracked`` (mutated along), every op kind included."""
        ops = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            untracked = [i for i in range(index.num_nodes) if i not in tracked]
            donors = [
                i for i in tracked if any(c not in tracked for c in index.child_ids[i])
            ]
            kinds = [
                kind
                for kind, possible in (
                    (FRESH, untracked),
                    (SPLIT, donors),
                    (FOLD, len(tracked) >= 2),
                    (MOVE, tracked and untracked),
                    (DROP, tracked),
                )
                if possible
            ]
            kind = data.draw(st.sampled_from(kinds))
            if kind == FRESH:
                node = data.draw(st.sampled_from(untracked))
                ops.append((FRESH, node))
                tracked.append(node)
            elif kind == SPLIT:
                donor = data.draw(st.sampled_from(donors))
                child = data.draw(
                    st.sampled_from(
                        [c for c in index.child_ids[donor] if c not in tracked]
                    )
                )
                ratio = data.draw(
                    st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
                )
                ops.append((SPLIT, donor, child, ratio, data.draw(st.booleans())))
                tracked.append(child)
            elif kind == FOLD:
                src = data.draw(st.sampled_from(tracked))
                tracked.remove(src)
                ops.append((FOLD, src, data.draw(st.sampled_from(tracked))))
            elif kind == MOVE:
                src = data.draw(st.sampled_from(tracked))
                dst = data.draw(st.sampled_from(untracked))
                tracked.remove(src)
                tracked.append(dst)
                ops.append((MOVE, src, dst))
            else:
                src = data.draw(st.sampled_from(tracked))
                tracked.remove(src)
                ops.append((DROP, src))
        return ops

    @staticmethod
    def apply_plan_scalar(algo, ops, paths):
        """The python tier has no op list: these are the statements of its
        ``_adapt`` / ``_split_cascade`` walk that each op stands for."""
        series = algo.series
        for op in ops:
            kind = op[0]
            if kind == FRESH:
                series[paths[op[1]]] = NodeTimeSeries(
                    algo.config.window_units, algo.config.forecast, bank=algo.bank
                )
            elif kind == SPLIT:
                _kind, donor, child, ratio, correct = op
                parent_series = series[paths[donor]]
                child_series = parent_series.scaled(ratio)
                series[paths[donor]] = parent_series.scaled(1.0 - ratio)
                series[paths[child]] = child_series
                parent_series.release()
                if correct:
                    algo._apply_reference_correction(paths[child])
            elif kind == FOLD:
                source = series.pop(paths[op[1]])
                series[paths[op[2]]].merge_from(source)
                source.release()
            elif kind == MOVE:
                series[paths[op[2]]] = series.pop(paths[op[1]])
            else:
                series.pop(paths[op[1]]).release()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_plans_keep_the_view_equal_to_the_python_tier_dict(self, data):
        """Random valid op lists applied on row numbers vs the same ops as
        the scalar walk's statements: same ``series`` order, same checkpoint
        bytes right after, same detections from there on."""
        tree, config = make_tree(), make_config()
        algo = ADAAlgorithm(tree, config)
        if algo._index is None:
            pytest.skip("vector backend unavailable")
        index = algo._index
        run_units(algo, self.WARM)
        taken = {path: algo.series[path] for path in list(algo.series)[::2]}
        ops = self.draw_plan(
            data, index, [index.path_to_id[path] for path in algo.series]
        )
        algo._apply_plan(AdaptationPlan(ops, 0, 0))
        assert_registry_consistent(algo)
        for path, handle in taken.items():
            # Still tracked, the row never freed: the very handle.
            # Otherwise inert, whoever holds the row now.
            if handle.forecaster.row >= 0:
                assert handle in list(algo.series.values())
            else:
                handle.release()
        assert_registry_consistent(algo)
        vector = (
            list(algo.series),
            canonical_checkpoint(algo.state_dict(), row_sorted=True),
            run_units(algo, self.TAIL, first_unit=len(self.WARM)),
        )
        with python_tier():
            oracle = ADAAlgorithm(tree, config)
            run_units(oracle, self.WARM)
            self.apply_plan_scalar(oracle, ops, index.paths)
            assert_registry_consistent(oracle)
            python = (
                list(oracle.series),
                canonical_checkpoint(oracle.state_dict(), row_sorted=True),
                run_units(oracle, self.TAIL, first_unit=len(self.WARM)),
            )
        assert vector == python

    def test_restore_resets_the_registry_and_its_handles(self):
        algo = ADAAlgorithm(make_tree(), make_config())
        run_units(algo, self.EVERY_OP[:3])
        stale = algo.series[next(iter(algo.series))]
        snapshot = json.loads(json.dumps(algo.state_dict()))
        algo.load_state_dict(snapshot)
        assert_registry_consistent(algo)
        assert algo.series[next(iter(algo.series))] is not stale
        assert canonical_checkpoint(algo.state_dict()) == canonical_checkpoint(snapshot)

    def test_duplicate_view_cache_annotation_removed(self):
        source = inspect.getsource(ADAAlgorithm.process_timeunit)
        assert "self._view_cache: dict" not in source


class TestCloseSurface:
    """The backend tier is the only thing that selects the close path."""

    CHURN_THEN_STABLE = [
        {("a", "a1"): 8, ("b", "b2"): 6},
        {("a", "a2"): 7},
        {("a", "a1"): 8, ("a", "a2"): 7},
        {("b", "b1", "x"): 9, ("c", "c1"): 8},
    ] + [{("a", "a1"): 9, ("b", "b2"): 6}] * 4

    def test_constructor_takes_tree_and_config_only(self):
        assert list(inspect.signature(ADAAlgorithm.__init__).parameters) == [
            "self",
            "tree",
            "config",
        ]

    def test_vector_tier_closes_all_land_in_fused_units(self):
        algo = ADAAlgorithm(make_tree(), make_config())
        if algo._index is None:
            pytest.skip("vector backend unavailable")
        run_units(algo, self.CHURN_THEN_STABLE)
        units = len(self.CHURN_THEN_STABLE)
        profile = algo.close_profile()
        stats = algo.adaptation_stats()
        assert profile["fused_units"] == units
        assert profile["staged_units"] == 0
        assert stats["mode"] == "delta"
        assert stats["fastpath_units"] > 0 and stats["planned_units"] > 0
        assert stats["fastpath_units"] + stats["planned_units"] == units

    def test_python_tier_closes_all_land_in_staged_units(self, python_tier):
        algo = ADAAlgorithm(make_tree(), make_config())
        run_units(algo, self.CHURN_THEN_STABLE)
        profile = algo.close_profile()
        stats = algo.adaptation_stats()
        assert profile["fused_units"] == 0
        assert profile["staged_units"] == len(self.CHURN_THEN_STABLE)
        assert not algo.supports_dense_close
        assert stats["mode"] == "legacy"
        assert stats["fastpath_units"] == stats["planned_units"] == 0

    @pytest.mark.parametrize("tier", list(TIERS))
    def test_stats_keep_every_key_the_ledger_and_metrics_read(self, tier):
        """``benchmarks/ledger/replay.py`` and ``/metrics`` read these by name."""
        with TIERS[tier]():
            algo = ADAAlgorithm(make_tree(), make_config())
            run_units(algo, self.CHURN_THEN_STABLE)
            assert set(algo.adaptation_stats()) == {
                "mode",
                "fastpath_units",
                "planned_units",
                "split_operations",
                "merge_operations",
                "adapt_seconds",
            }
            profile = algo.close_profile()
            assert set(profile) == {
                "fused_units",
                "staged_units",
                "dense_close_units",
                "close_time",
            }
            assert profile["close_time"]["count"] == len(self.CHURN_THEN_STABLE)

    @pytest.mark.parametrize("tier", list(TIERS))
    def test_series_path_outside_tree_is_a_checkpoint_error(self, tier):
        """A restored series the tree has no node for could never be adapted;
        it used to pin the instance to the scalar walk silently."""
        with TIERS[tier]():
            source = ADAAlgorithm(make_tree(), make_config())
            run_units(source, self.CHURN_THEN_STABLE)
            state = json.loads(json.dumps(source.state_dict()))
            state["series"][0][0] = ["zz", "nowhere"]
            with pytest.raises(CheckpointError, match="nowhere"):
                ADAAlgorithm(make_tree(), make_config()).load_state_dict(state)


class TestAdaptationStats:
    def test_session_exposes_stats(self):
        from repro.engine.session import DetectionSession

        tree = make_tree()
        session = DetectionSession(tree, make_config())
        session.process_timeunit_counts({("a", "a1"): 9}, 0)
        session.process_timeunit_counts({("a", "a1"): 9}, 1)
        stats = session.adaptation_stats()
        assert stats["mode"] in ("delta", "legacy")
        assert stats["split_operations"] >= 0
        sta = DetectionSession(tree, make_config(), algorithm="sta")
        sta.process_timeunit_counts({("a", "a1"): 9}, 0)
        assert sta.adaptation_stats() == {}
