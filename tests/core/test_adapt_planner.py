"""ADA's adaptation engine against the per-path reference cascade.

The id-based planner (:mod:`repro.core.adapt`) plus the batched application
path in :class:`~repro.core.ada.ADAAlgorithm` must reproduce the per-path
SPLIT/MERGE walk of :class:`repro.testing.reference.ReferenceADA` bit for
bit: identical per-timeunit results (heavy hitters, actuals, forecasts,
anomalies), identical split/merge counters and — up to the row order of the
split statistics — identical checkpoint states.
"""

import inspect
import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ada import ADAAlgorithm, RefStore
from repro.core.adapt import DROP, FOLD, FRESH, MOVE, SPLIT, AdaptationPlan, plan_adaptation
from repro.core.config import ForecastConfig, TiresiasConfig
from repro.engine.session import DetectionSession
from repro.engine.subtree import (
    merge_session_states,
    plan_subtree_groups,
    split_session_state,
)
from repro.exceptions import CheckpointError
from repro.forecasting.bank import ForecasterBank
from repro.hierarchy.tree import HierarchyTree
from repro.testing.reference import ReferenceADA, ReferenceSeries, ScalarRow
from tests.conftest import canonical_checkpoint

LEAVES = [
    ("a", "a1"),
    ("a", "a2"),
    ("a", "a3"),
    ("b", "b1", "x"),
    ("b", "b1", "y"),
    ("b", "b2"),
    ("c", "c1"),
]


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


def tracked_paths(algo):
    """The tracked paths in tracking order, as the checkpoint lists them."""
    return [tuple(path) for path, _state in algo.state_dict()["series"]]


def run_units(algo, unit_sequence, first_unit=0):
    """Feed ``unit_sequence`` to ``algo``; return its comparable outputs."""
    results = []
    for i, counts in enumerate(unit_sequence):
        results.append(algo.process_timeunit(counts, first_unit + i))
        if isinstance(algo, ADAAlgorithm):
            assert_registry_consistent(algo)
    return {
        "series_order": tracked_paths(algo),
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
    and the checkpoint's series, ``series_state`` and the id registry
    agree."""
    tracked = tracked_paths(algo)
    rows = list(algo._series_ids.values())
    assert len(algo.bank) == len(tracked) == len(rows)
    assert len(set(rows)) == len(rows)
    assert all(row >= 0 for row in rows)
    ids = [algo._index.path_to_id[path] for path in tracked]
    assert list(algo._series_ids) == ids
    assert algo._series_rows[ids].tolist() == rows
    assert int(algo._series_mask.sum()) == len(ids)
    assert [algo.series_state(path) for path in tracked] == [
        state for _path, state in algo.state_dict()["series"]
    ]


def assert_equivalent(tree, config, unit_sequence):
    assert run_units(ADAAlgorithm(tree, config), unit_sequence) == run_units(
        ReferenceADA(tree, config), unit_sequence
    )


counts_strategy = st.dictionaries(
    st.sampled_from(LEAVES),
    st.integers(min_value=0, max_value=12),
    max_size=len(LEAVES),
)

sequence_strategy = st.lists(counts_strategy, min_size=1, max_size=14)


class TestPlannerEquivalence:
    """Random heavy-set delta sequences: planner == the reference cascade."""

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
        if counts:
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

    @pytest.mark.parametrize("source", [ADAAlgorithm, ReferenceADA])
    def test_restore_resumes_like_the_reference(self, source):
        """A snapshot written by either resumes identically in both."""
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
        writer = source(tree, config)
        for unit, counts in enumerate(warm):
            writer.process_timeunit(counts, unit)
        snapshot = json.dumps(writer.state_dict())
        outputs = []
        for reader in (ADAAlgorithm, ReferenceADA):
            algo = reader(tree, config)
            algo.load_state_dict(json.loads(snapshot))
            outputs.append(run_units(algo, tail, first_unit=len(warm)))
        assert outputs[0] == outputs[1]


class TestPlannerInternals:
    def test_plan_matches_series_state_transition(self):
        tree = make_tree()
        config = make_config()
        algo = ADAAlgorithm(tree, config)
        algo.process_timeunit({("a", "a1"): 9, ("b", "b2"): 6}, 0)
        index = algo._index
        heavy_mask = algo._series_mask.copy()
        plan = plan_adaptation(
            index,
            algo._series_mask,
            heavy_mask,
            algo._ref_has_id,
            algo._make_id_scorer(),
        )
        assert not plan.ops  # no delta -> empty plan
        heavy_mask = algo._series_mask.copy()
        heavy_mask[index.path_to_id[("a", "a1")]] = False
        heavy_mask[index.path_to_id[("c", "c1")]] = True
        plan = plan_adaptation(
            index,
            algo._series_mask,
            heavy_mask,
            algo._ref_has_id,
            algo._make_id_scorer(),
        )
        kinds = [op[0] for op in plan.ops]
        assert plan.num_merges >= 1
        assert plan.num_splits == kinds.count("split")
        assert plan.num_merges == sum(
            1 for k in kinds if k in ("fold", "move", "drop")
        )


class TestBankOps:
    CONFIG = ForecastConfig(season_lengths=(3,), fallback_alpha=0.4)

    #: Every model the config can name; on one period ``"auto"`` is the
    #: single-season model, and the multi-seasonal one takes its own layout.
    MODELS = ("auto", "holt-winters", "multi-seasonal-holt-winters")

    def setup_bank(self, n=6, config=CONFIG):
        bank = ForecasterBank(config)
        rows = []
        for i in range(n):
            row = bank.new_row()
            for step in range(10):
                bank.observe_rows(np.array([row]), np.array([5.0 + i + step % 3]))
            rows.append(row)
        return bank, rows

    def setup_scalar_rows(self, n=6, config=CONFIG):
        """The same rows as per-object forecasters (the reference's)."""
        rows = []
        for i in range(n):
            row = ScalarRow(config)
            for step in range(10):
                row.observe(5.0 + i + step % 3)
            rows.append(row)
        return rows

    @pytest.mark.parametrize("model", MODELS)
    def test_split_row_matches_two_clones(self, model):
        config = self.CONFIG.replace(model=model)
        bank, rows = self.setup_bank(config=config)
        scalar = self.setup_scalar_rows(config=config)
        ratio = 0.3
        child = bank.split_row(rows[0], ratio)
        assert bank.row_state_dict(child) == scalar[0].scaled(ratio).state_dict()
        assert bank.row_state_dict(rows[0]) == scalar[0].scaled(1.0 - ratio).state_dict()

    @pytest.mark.parametrize("model", MODELS)
    def test_fold_row_matches_add_state(self, model):
        """One MERGE pair per destination, several destinations."""
        config = self.CONFIG.replace(model=model)
        bank, rows = self.setup_bank(config=config)
        scalar = self.setup_scalar_rows(config=config)
        for dst, src in zip(rows[:3], rows[3:]):
            bank.fold_row(dst, src)
            bank.free_row(src)
        for dst, src in zip(scalar[:3], scalar[3:]):
            dst.add_state(src)
        for row, ref in zip(rows[:3], scalar[:3]):
            assert bank.row_state_dict(row) == ref.state_dict()
        assert len(bank) == 3

    def test_fold_row_adopt_branch(self):
        """Destinations that are fresh (inactive) rows take a copy."""
        bank, rows = self.setup_bank(n=5)
        scalar = self.setup_scalar_rows(n=5)
        fresh = [bank.new_row() for _ in range(5)]
        sfresh = [ScalarRow(self.CONFIG) for _ in range(5)]
        for dst, src in zip(fresh, rows):
            bank.fold_row(dst, src)
        for dst, src in zip(sfresh, scalar):
            dst.add_state(src)
        for row, ref in zip(fresh, sfresh):
            assert bank.row_state_dict(row) == ref.state_dict()

    def test_ops_on_warmup_history_rows(self):
        """Rows still in warm-up carry their history through SPLIT and MERGE."""
        config = ForecastConfig(season_lengths=(4,), fallback_alpha=0.4)
        bank = ForecasterBank(config)
        rows = [bank.new_row() for _ in range(4)]
        scalar = [ScalarRow(config) for _ in range(4)]
        for step in range(4):
            for _ in range(step + 1):  # unequal history lengths
                bank.observe_rows(np.array([rows[step]]), np.array([3.0 + step]))
                scalar[step].observe(3.0 + step)
        child = bank.split_row(rows[0], 0.25)
        scalar.append(scalar[0].scaled(0.25))
        scalar[0] = scalar[0].scaled(0.75)
        for dst, src in ((2, 3), (3, 1), (4, 0)):
            bank.fold_row((rows + [child])[dst], (rows + [child])[src])
            scalar[dst].add_state(scalar[src])
        for row, ref in zip(rows + [child], scalar):
            snapshot = bank.row_state_dict(row)
            assert snapshot == ref.state_dict()
            assert snapshot["history"]


class TestRefStore:
    def test_ring_round_trip(self):
        paths = (("a",), ("b",))
        store = RefStore(4, paths)
        for value in range(6):
            store.append_column([float(value), float(value * 10)])
        assert store.emit() == [
            [["a"], [2.0, 3.0, 4.0, 5.0]],
            [["b"], [20.0, 30.0, 40.0, 50.0]],
        ]
        assert store.has_values(("a",))
        assert not store.has_values(("z",))
        assert store.total_len() == 8
        clone = RefStore(4, paths)
        clone.load(store.emit())
        assert clone.emit() == store.emit()
        assert clone.corrected_base(("b",)).tolist() == [20.0, 30.0, 40.0, 50.0]

    def test_ragged_load_stays_in_the_ring(self):
        store = RefStore(8, (("a",), ("b",)))
        store.load([[["a"], [1.0, 2.0]], [["b"], [3.0]]])
        assert store.emit() == [[["a"], [1.0, 2.0]], [["b"], [3.0]]]
        store.append_column([5.0, 6.0])
        assert store.emit() == [[["a"], [1.0, 2.0, 5.0]], [["b"], [3.0, 6.0]]]
        assert store.total_len() == 5

    def test_empty_load_then_append(self):
        store = RefStore(4, (("a",),))
        store.load([])
        store.append_column([1.0])
        assert store.emit() == [[["a"], [1.0]]]

    def test_a_row_outside_the_paths_is_refused(self):
        store = RefStore(4, (("a",), ("b",)))
        with pytest.raises(CheckpointError, match="'z'"):
            store.load([[["a"], [1.0]], [["z"], [2.0]]])

    def test_a_path_named_twice_is_refused(self):
        store = RefStore(8, (("a",), ("b",)))
        with pytest.raises(CheckpointError, match=r"reference rows name \('a',\) twice"):
            store.load([[["a"], [1.0, 2.0]], [["a"], [3.0]]])

    def test_a_column_is_gathered_at_the_ids(self):
        store = RefStore(4, (("a",), ("b",)), np.array([3, 1]))
        store.append_column(np.array([0.0, 1.5, 2.5, 3.5]))
        assert store.emit() == [[["a"], [3.5]], [["b"], [1.5]]]

    @pytest.mark.parametrize("columns", range(7))
    def test_corrected_base_is_the_callers_copy(self, columns):
        """Mutating a base leaves the store as it was: over these column
        counts every path's range is read both unwrapped (a view, copied)
        and wrapped (a concatenation), from a restore in an order that
        differs from ``paths``."""
        paths = (("a",), ("b",), ("c",))
        store = RefStore(4, paths)
        store.load([[["c"], [7.0]], [["a"], [1.0, 2.0]]])
        for value in range(columns):
            store.append_column([float(value), 10.0 + value, 20.0 + value])
        before = store.emit()
        # Restored rows first, in load order; the rest once a column exists.
        assert [row[0] for row in before] == [["c"], ["a"], ["b"]][: 3 if columns else 2]
        for path in paths:
            base = store.corrected_base(path)
            if base is not None:
                base -= 100.0
        assert store.emit() == before

    def test_a_merged_shard_state_saves_byte_for_byte(self, tmp_path):
        """A merged 2-subtree-shard ADA state lists its reference rows shard
        by shard, then the band: not the order of ``paths``.  Save -> load
        -> save keeps every byte, that order included."""
        tree = make_tree()
        config = make_config(min_heavy_depth=2)
        session = DetectionSession(tree, config)
        for unit in range(8):
            session.process_timeunit_counts(
                {leaf: float(1 + (unit * 3 + i) % 5) for i, leaf in enumerate(LEAVES)},
                unit,
            )
        state = session.state_dict()
        groups = plan_subtree_groups(state["tree"]["leaves"], 2, depth=2)
        sub_states, withheld = split_session_state(state, groups, 2)
        merged = merge_session_states(
            sub_states, state, reports=state["reports"], withheld=withheld, depth=2
        )
        order = [tuple(path) for path, _ in merged["algorithm_state"]["reference"]]
        paths = ADAAlgorithm(tree, config)._reference_nodes
        assert sorted(order) == sorted(paths) and order != list(paths)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        DetectionSession.from_state_dict(merged).save_checkpoint(first)
        restored = DetectionSession.load_checkpoint(first)
        restored.save_checkpoint(second)
        assert first.read_bytes() == second.read_bytes()
        reference = restored.state_dict()["algorithm_state"]["reference"]
        assert [tuple(path) for path, _ in reference] == order

    UNIVERSE = [("a",), ("b",), ("c",), ("b", "x"), ("b", "y")]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_ring_equals_a_deque_per_row(self, data):
        """Against a dict of bounded deques: ragged restores of any subset
        of ``paths`` in any order, rows created late (in ``paths`` order),
        restores mid-stream, and wrap — ``emit``, ``corrected_base``,
        ``has_values`` and ``total_len`` after every step."""
        maxlen = data.draw(st.integers(min_value=1, max_value=5), label="maxlen")
        subsets = st.lists(st.sampled_from(self.UNIVERSE), unique=True, max_size=5)
        paths = tuple(data.draw(subsets.filter(bool), label="paths"))
        loaded = data.draw(st.permutations(paths), label="loaded")
        loaded = loaded[: data.draw(st.integers(0, len(loaded)), label="restored")]
        rows = [
            [list(path), data.draw(st.lists(st.integers(-9, 9).map(float), max_size=8))]
            for path in loaded
        ]
        store = RefStore(maxlen, paths)
        store.load(rows)
        model = {
            tuple(path): deque(values, maxlen=maxlen) for path, values in rows
        }
        for _ in range(data.draw(st.integers(min_value=0, max_value=14), label="steps")):
            if data.draw(st.integers(0, 9)) == 0:
                store.load(store.emit())
            else:
                values = [float(data.draw(st.integers(-9, 9))) for _ in paths]
                store.append_column(values)
                for path, value in zip(paths, values):
                    model.setdefault(path, deque(maxlen=maxlen)).append(value)
            assert store.emit() == [[list(p), list(b)] for p, b in model.items()]
            assert store.total_len() == sum(len(b) for b in model.values())
            for path in self.UNIVERSE:
                expected = list(model.get(path, ()))
                assert store.has_values(path) == bool(expected)
                base = store.corrected_base(path)
                assert (None if base is None else base.tolist()) == (expected or None)


class TestRegistryGuards:
    """ADA's series registry maps node ids to bank row numbers: every plan
    op keeps it equal to the reference's dict, and ``series_state`` reads a
    path's row only while the path is tracked."""

    #: Hits every op kind the planner emits: FRESH (new top-level subtree),
    #: SPLIT with and without a reference correction (depth <= 2 / depth 3),
    #: FOLD (leaf into its heavy parent) and DROP (no heavy ancestor left).
    #: MOVE is its mirror of the cascade's "target holds no series yet" arm,
    #: which the SPLIT phase pre-empts; the random plans below emit it.
    EVERY_OP = [
        {("a", "a1"): 9, ("b", "b1", "x"): 9, ("b", "b1", "y"): 9},
        {("a", "a1"): 2, ("a", "a2"): 2, ("b", "b1", "x"): 3, ("b", "b1", "y"): 2},
        {("a", "a1"): 9, ("a", "a2"): 9, ("b", "b1", "x"): 9, ("b", "b1", "y"): 9},
        {("a", "a1"): 9, ("a", "a2"): 2, ("a", "a3"): 2, ("b", "b2"): 3},
        {("c", "c1"): 9},
        {("a", "a1"): 1, ("b", "b1", "x"): 9, ("b", "b1", "y"): 1, ("b", "b2"): 3},
        {},
    ]

    def test_every_op_kind_keeps_the_registry_equal_to_the_reference(self):
        tree, config = make_tree(), make_config()
        algo = ADAAlgorithm(tree, config)
        seen = set()
        apply_plan = algo._apply_plan

        def recording_apply(plan):
            seen.update(op[0] if op[0] != "split" else ("split", op[4]) for op in plan.ops)
            apply_plan(plan)

        algo._apply_plan = recording_apply
        got = run_units(algo, self.EVERY_OP)
        assert seen == {"fresh", ("split", True), ("split", False), "fold", "drop"}
        assert got == run_units(ReferenceADA(tree, config), self.EVERY_OP)

    def test_series_state_reads_tracked_paths_only(self):
        algo = ADAAlgorithm(make_tree(), make_config())
        algo.process_timeunit({("a", "a1"): 9, ("b", "b2"): 6}, 0)
        state = algo.series_state(("a", "a1"))
        assert state["actual"] == [9.0] and state["length"] == 12
        assert algo.series_state(["a", "a1"]) == state
        assert algo.series_state(("a", "a2")) is None  # a node, untracked
        assert algo.series_state(("a", "zz")) is None  # not a node

    def test_a_dropped_path_reads_none_after_its_row_is_recycled(self):
        """A path a plan drops reads ``None``, not the row's next tenant."""
        algo = ADAAlgorithm(make_tree(), make_config())
        algo.process_timeunit({("a", "a1"): 9, ("c", "c1"): 9}, 0)
        ids = algo._index.path_to_id
        freed_row = algo._series_ids[ids[("c", "c1")]]
        # c1 goes (DROP: no heavy ancestor); b2 arrives and recycles the row.
        algo.process_timeunit({("a", "a1"): 9}, 1)
        algo.process_timeunit({("a", "a1"): 9, ("b", "b2"): 9}, 2)
        assert algo.series_state(("c", "c1")) is None
        assert algo._series_ids[ids[("b", "b2")]] == freed_row
        assert algo.series_state(("b", "b2"))["actual"] == [9.0]
        assert algo.series_state(("a", "a1"))["actual"] == [9.0, 9.0, 9.0]
        assert_registry_consistent(algo)

    def test_checkpoint_and_accounting_read_the_rows(self):
        """``state_dict``, ``memory_units`` and ``series_for`` agree with
        ``series_state``, path by path, in tracking order."""
        algo = ADAAlgorithm(make_tree(), make_config())
        for unit, counts in enumerate(self.WARM):
            algo.process_timeunit(counts, unit)
        tracked = tracked_paths(algo)
        assert len(tracked) > 1
        states = [algo.series_state(path) for path in tracked]
        assert algo.state_dict()["series"] == [
            [list(path), state] for path, state in zip(tracked, states)
        ]
        assert algo.series_for(tracked[0]) == states[0]["actual"]
        assert algo.memory_units() == algo.tree.num_nodes + algo._ref.total_len() + sum(
            len(state["actual"]) + len(state["forecast"]) for state in states
        )

    def test_a_moved_series_keeps_its_row_and_state(self):
        algo = ADAAlgorithm(make_tree(), make_config())
        algo.process_timeunit({("b", "b1", "x"): 9}, 0)
        ids = algo._index.path_to_id
        before = algo.series_state(("b", "b1", "x"))
        row = algo._series_ids[ids[("b", "b1", "x")]]
        algo._apply_plan(
            AdaptationPlan([(MOVE, ids[("b", "b1", "x")], ids[("b", "b1")])], 0, 1)
        )
        assert tracked_paths(algo) == [("b", "b1")]
        assert algo._series_ids[ids[("b", "b1")]] == row
        assert algo.series_state(("b", "b1")) == before
        assert algo.series_state(("b", "b1", "x")) is None
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
                i
                for i in tracked
                if any(
                    c not in tracked
                    for c in range(index.child_start[i], index.child_start[i + 1])
                )
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
                        [
                            c
                            for c in range(index.child_start[donor], index.child_start[donor + 1])
                            if c not in tracked
                        ]
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
    def apply_plan_to_reference(oracle, ops, paths):
        """The reference has no op list: these are the per-path steps of its
        cascade that each op stands for."""
        for op in ops:
            kind = op[0]
            if kind == FRESH:
                oracle.series[paths[op[1]]] = ReferenceSeries(
                    oracle.config.window_units, oracle.config.forecast
                )
            elif kind == SPLIT:
                _kind, donor, child, ratio, correct = op
                oracle.split(paths[donor], paths[child], ratio)
                if correct:
                    oracle.correct(paths[child])
            elif kind == DROP:
                oracle.merge(paths[op[1]], None)
            else:  # FOLD or MOVE
                oracle.merge(paths[op[1]], paths[op[2]])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_plans_keep_the_registry_equal_to_the_reference(self, data):
        """Random valid op lists applied on row numbers vs the same ops as
        the reference cascade's steps: same tracking order, same checkpoint
        bytes right after, same detections from there on."""
        tree, config = make_tree(), make_config()
        algo = ADAAlgorithm(tree, config)
        index = algo._index
        run_units(algo, self.WARM)
        ops = self.draw_plan(
            data, index, [index.path_to_id[path] for path in tracked_paths(algo)]
        )
        algo._apply_plan(AdaptationPlan(ops, 0, 0))
        assert_registry_consistent(algo)
        got = (
            tracked_paths(algo),
            canonical_checkpoint(algo.state_dict(), row_sorted=True),
            run_units(algo, self.TAIL, first_unit=len(self.WARM)),
        )
        oracle = ReferenceADA(tree, config)
        run_units(oracle, self.WARM)
        self.apply_plan_to_reference(oracle, ops, index.paths)
        want = (
            tracked_paths(oracle),
            canonical_checkpoint(oracle.state_dict(), row_sorted=True),
            run_units(oracle, self.TAIL, first_unit=len(self.WARM)),
        )
        assert got == want

    def test_restore_resets_the_registry(self):
        algo = ADAAlgorithm(make_tree(), make_config())
        run_units(algo, self.EVERY_OP[:3])
        snapshot = json.loads(json.dumps(algo.state_dict()))
        algo.load_state_dict(snapshot)
        assert_registry_consistent(algo)
        assert [[list(path), algo.series_state(path)] for path in tracked_paths(algo)] == (
            snapshot["series"]
        )
        assert canonical_checkpoint(algo.state_dict()) == canonical_checkpoint(snapshot)

    def test_duplicate_view_cache_annotation_removed(self):
        source = inspect.getsource(ADAAlgorithm.process_timeunit)
        assert "self._view_cache: dict" not in source


class TestCloseSurface:
    """One close path, whatever the forecasting model."""

    #: Chosen by the config, or a model by name.
    MODELS = ("auto", "holt-winters", "multi-seasonal-holt-winters")

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

    def test_every_close_lands_in_fused_units(self):
        algo = ADAAlgorithm(make_tree(), make_config())
        run_units(algo, self.CHURN_THEN_STABLE)
        units = len(self.CHURN_THEN_STABLE)
        profile = algo.close_profile()
        stats = algo.adaptation_stats()
        assert profile["fused_units"] == units
        assert profile["staged_units"] == 0
        assert stats["mode"] == "delta"
        assert stats["fastpath_units"] > 0 and stats["planned_units"] > 0
        assert stats["fastpath_units"] + stats["planned_units"] == units

    @pytest.mark.parametrize("model", MODELS)
    def test_a_named_model_takes_the_same_close(self, model):
        """Naming a built-in forecaster selects the row store's layout, not
        another close: matrix rows and the planner."""
        config = make_config()
        config = config.replace(forecast=config.forecast.replace(model=model))
        algo = ADAAlgorithm(make_tree(), config)
        run_units(algo, self.CHURN_THEN_STABLE)
        assert algo.adaptation_stats()["planned_units"] > 0
        assert algo.close_profile()["fused_units"] == len(self.CHURN_THEN_STABLE)

    @staticmethod
    def model_config(model):
        config = make_config()
        return config.replace(forecast=config.forecast.replace(model=model))

    @pytest.mark.parametrize("model", MODELS)
    def test_stats_keep_every_key_the_ledger_and_metrics_read(self, model):
        """``benchmarks/ledger/replay.py`` and ``/metrics`` read these by name."""
        algo = ADAAlgorithm(make_tree(), self.model_config(model))
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

    @pytest.mark.parametrize("model", MODELS)
    def test_series_path_outside_tree_is_a_checkpoint_error(self, model):
        """A restored series the tree has no node for could never be adapted."""
        config = self.model_config(model)
        source = ADAAlgorithm(make_tree(), config)
        run_units(source, self.CHURN_THEN_STABLE)
        state = json.loads(json.dumps(source.state_dict()))
        state["series"][0][0] = ["zz", "nowhere"]
        with pytest.raises(CheckpointError, match="nowhere"):
            ADAAlgorithm(make_tree(), config).load_state_dict(state)


class TestAdaptationStats:
    def test_session_exposes_stats(self):
        from repro.engine.session import DetectionSession

        tree = make_tree()
        session = DetectionSession(tree, make_config())
        session.process_timeunit_counts({("a", "a1"): 9}, 0)
        session.process_timeunit_counts({("a", "a1"): 9}, 1)
        stats = session.adaptation_stats()
        assert stats["mode"] == "delta"
        assert stats["split_operations"] >= 0
        sta = DetectionSession(tree, make_config(), algorithm="sta")
        sta.process_timeunit_counts({("a", "a1"): 9}, 0)
        assert sta.adaptation_stats() == {}
