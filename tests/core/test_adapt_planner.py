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
from repro.core.adapt import plan_adaptation
from repro.core.config import ForecastConfig, TiresiasConfig
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

#: The tier under test (whatever this process runs: compiled or NumPy) and
#: the reference it is compared against.
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
    results = [
        algo.process_timeunit(counts, first_unit + i)
        for i, counts in enumerate(unit_sequence)
    ]
    return {
        "results": [
            (r.timeunit, r.heavy_hitters, r.actuals, r.forecasts, r.anomalies)
            for r in results
        ],
        "state": canonical_checkpoint(algo.state_dict(), row_sorted=True),
        "splits": algo.split_operations,
        "merges": algo.merge_operations,
    }


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
    def test_series_pop_without_bucket_entry(self):
        """Popping a path whose top-label bucket never existed must not raise
        (the historical code assumed the bucket was always present)."""
        tree = make_tree()
        algo = ADAAlgorithm(tree, make_config())
        from repro.core.timeseries import NodeTimeSeries

        series = NodeTimeSeries(
            make_config().window_units, make_config().forecast, bank=algo.bank
        )
        algo.series[("a", "a1")] = series  # bypass _series_set: no bucket
        assert algo._series_pop(("a", "a1")) is series

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
