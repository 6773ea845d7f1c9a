"""Unit tests for :mod:`repro.core.ada` (the adaptive algorithm, §V-B)."""

import copy
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.ada import (
    NO_LAST_UNIT,
    ADAAlgorithm,
    SplitStatsStore,
)
from repro.core.config import ForecastConfig, TiresiasConfig
from repro.core.hhh import compute_shhh
from repro.core.sta import STAAlgorithm
from repro.exceptions import CheckpointError
from repro.hierarchy.tree import HierarchyTree
from repro.testing.reference import ReferenceStats


@pytest.fixture
def tree():
    return HierarchyTree(
        [("a", "a1"), ("a", "a2"), ("b", "b1"), ("b", "b2")]
    )


def make_config(**overrides):
    defaults = dict(
        theta=5.0,
        ratio_threshold=2.0,
        difference_threshold=4.0,
        window_units=16,
        track_root=False,
        reference_levels=1,
        split_rule="long-term-history",
        forecast=ForecastConfig(season_lengths=(4,), fallback_alpha=0.5),
    )
    defaults.update(overrides)
    return TiresiasConfig(**defaults)


class TestHeavyHitterCorrectness:
    """Lemma 1: ADA tracks exactly the Definition-2 heavy hitter set."""

    def test_heavy_hitters_match_definition_every_unit(self, tree):
        ada = ADAAlgorithm(tree, make_config())
        scenarios = [
            {("a", "a1"): 8},
            {("a", "a1"): 2, ("a", "a2"): 2, ("b", "b1"): 3},
            {("b", "b1"): 9, ("b", "b2"): 6},
            {},
            {("a", "a1"): 3, ("a", "a2"): 3},
            {("a", "a1"): 20, ("a", "a2"): 20, ("b", "b1"): 20},
        ]
        for counts in scenarios:
            result = ada.process_timeunit(counts)
            expected = compute_shhh(tree, counts, ada.config.theta).shhh
            assert result.heavy_hitters == expected

    def test_every_heavy_hitter_has_a_series(self, tree):
        ada = ADAAlgorithm(tree, make_config())
        for counts in ({("a", "a1"): 8}, {("a", "a1"): 3, ("a", "a2"): 3}, {("b", "b1"): 7}):
            result = ada.process_timeunit(counts)
            for path in result.heavy_hitters:
                assert ada.series_state(path) is not None
                assert len(ada.series_for(path)) >= 1

    def test_track_root_keeps_root_series(self, tree):
        ada = ADAAlgorithm(tree, make_config(theta=100.0, track_root=True))
        result = ada.process_timeunit({("a", "a1"): 1})
        assert () in result.heavy_hitters
        assert ada.series_state(()) is not None


class TestSplitAndMerge:
    def test_split_moves_series_down_when_child_becomes_heavy(self, tree):
        ada = ADAAlgorithm(tree, make_config())
        # Parent 'a' is the heavy hitter while weight is spread over children.
        for _ in range(5):
            ada.process_timeunit({("a", "a1"): 3, ("a", "a2"): 3})
        assert ada.series_state(("a",)) is not None
        # Now a1 alone becomes heavy: the series must move down to a1.
        result = ada.process_timeunit({("a", "a1"): 9, ("a", "a2"): 1})
        assert ("a", "a1") in result.heavy_hitters
        assert ada.series_state(("a", "a1")) is not None
        assert ada.split_operations >= 1
        # The child's adapted series has inherited history (not just one point).
        assert len(ada.series_for(("a", "a1"))) > 1

    def test_merge_moves_series_up_when_children_cool_down(self, tree):
        ada = ADAAlgorithm(tree, make_config())
        for _ in range(5):
            ada.process_timeunit({("a", "a1"): 9, ("a", "a2"): 8})
        assert ada.series_state(("a", "a1")) is not None
        assert ada.series_state(("a", "a2")) is not None
        # Activity collapses onto the parent (spread thin over both children).
        result = ada.process_timeunit({("a", "a1"): 3, ("a", "a2"): 3})
        assert result.heavy_hitters == frozenset({("a",)})
        assert ada.series_state(("a",)) is not None
        assert ada.series_state(("a", "a1")) is None
        assert ada.merge_operations >= 1
        # Merged history keeps the children's past mass.
        assert len(ada.series_for(("a",))) > 1

    def test_series_dropped_when_no_heavy_ancestor(self, tree):
        ada = ADAAlgorithm(tree, make_config())
        for _ in range(3):
            ada.process_timeunit({("a", "a1"): 9})
        result = ada.process_timeunit({})
        assert result.heavy_hitters == frozenset()
        assert ada.state_dict()["series"] == []

    def test_split_conserves_total_history_mass(self, tree):
        config = make_config(reference_levels=0)
        ada = ADAAlgorithm(tree, config)
        for _ in range(6):
            ada.process_timeunit({("a", "a1"): 4, ("a", "a2"): 4})
        parent_mass = sum(ada.series_for(("a",)))
        ada.process_timeunit({("a", "a1"): 12, ("a", "a2"): 12})
        # Splitting distributes the parent's history among descendants; the
        # total retained history mass (excluding the new appends) must equal
        # the parent's prior mass.
        total = sum(sum(state["actual"][:-1]) for _path, state in ada.state_dict()["series"])
        assert total == pytest.approx(parent_mass, rel=1e-9)


def reference_rows(ada):
    """``{path: values}`` of the checkpoint's reference series."""
    return {tuple(path): values for path, values in ada.state_dict()["reference"]}


class TestReferenceSeries:
    def test_reference_series_maintained_for_top_levels(self, tree):
        ada = ADAAlgorithm(tree, make_config(reference_levels=1))
        for _ in range(4):
            ada.process_timeunit({("a", "a1"): 3, ("b", "b1"): 2})
        reference = reference_rows(ada)
        assert ("a",) in reference
        assert ("b",) in reference
        assert reference[("a",)] == [3.0] * 4
        # Reference series hold unmodified weights and exist regardless of
        # heavy hitter status.
        assert ("a", "a1") not in reference

    def test_reference_levels_zero_disables_reference(self, tree):
        ada = ADAAlgorithm(tree, make_config(reference_levels=0))
        ada.process_timeunit({("a", "a1"): 3})
        assert reference_rows(ada) == {}

    def test_reference_correction_improves_split_accuracy(self, tree):
        """With h=1, a split onto a level-1 node snaps to its true history."""
        counts_sequence = [{("a", "a1"): 2, ("b", "b1"): 6}] * 6 + [
            {("a", "a1"): 7, ("b", "b1"): 6}
        ]
        errors = {}
        for h in (0, 1):
            ada = ADAAlgorithm(tree, make_config(reference_levels=h, theta=5.0))
            sta = STAAlgorithm(tree, make_config(reference_levels=h, theta=5.0))
            for counts in counts_sequence:
                ada.process_timeunit(counts)
                sta.process_timeunit(counts)
            exact = sta.series_for(("a",)) if ("a",) in sta.last_result.heavy_hitters else None
            approx = ada.series_for(("a",))
            if exact and approx:
                length = min(len(exact), len(approx))
                errors[h] = sum(
                    abs(x - y) for x, y in zip(exact[-length:], approx[-length:])
                )
        if 0 in errors and 1 in errors:
            assert errors[1] <= errors[0] + 1e-9


class TestDetectionAndIntrospection:
    def test_spike_detected(self, tree):
        ada = ADAAlgorithm(tree, make_config())
        for _ in range(10):
            ada.process_timeunit({("a", "a1"): 6})
        result = ada.process_timeunit({("a", "a1"): 40})
        assert any(a.node_path == ("a", "a1") for a in result.anomalies)

    def test_memory_smaller_than_sta_after_long_run(self, tree):
        # Activity is spread thinly over every leaf: STA stores per-unit
        # weights for all touched nodes across the whole window, while ADA
        # only keeps the (single) heavy hitter's series plus reference series.
        config = make_config(window_units=32)
        ada = ADAAlgorithm(tree, config)
        sta = STAAlgorithm(tree, config)
        counts = {("a", "a1"): 2, ("a", "a2"): 2, ("b", "b1"): 2, ("b", "b2"): 2}
        for _ in range(40):
            ada.process_timeunit(counts)
            sta.process_timeunit(counts)
        assert ada.memory_units() < sta.memory_units()

    def test_stage_timers_populated(self, tree):
        ada = ADAAlgorithm(tree, make_config())
        ada.process_timeunit({("a", "a1"): 6})
        assert ada.stage_seconds["updating_hierarchies"] >= 0.0
        assert ada.stage_seconds["creating_time_series"] > 0.0

    def test_series_for_unknown_path_is_empty(self, tree):
        ada = ADAAlgorithm(tree, make_config())
        assert ada.series_for(("nope",)) == []


#: Every node of the ``tree`` fixture.
TREE_PATHS = [(), ("a",), ("b",), ("a", "a1"), ("a", "a2"), ("b", "b1"), ("b", "b2")]
#: The four split rules, by their config names.
SPLIT_RULES = ("uniform", "last-time-unit", "long-term-history", "ewma")
WEIGHT = st.floats(min_value=0.001, max_value=1e6, allow_nan=False)
#: One timeunit of a feed: silent timeunits before it, then the positive raw
#: weights of the nodes it touches (none: an all-zero unit).
FEED = st.tuples(
    st.integers(min_value=0, max_value=60),
    st.dictionaries(st.sampled_from(TREE_PATHS), WEIGHT, max_size=len(TREE_PATHS)),
)
STATS_ROW = st.fixed_dictionaries(
    {
        "last_weight": st.floats(min_value=0.0, max_value=1e6),
        "cumulative_weight": st.floats(min_value=0.0, max_value=1e9),
        "ewma_weight": st.floats(min_value=0.0, max_value=1e6),
        "observations": st.integers(min_value=0, max_value=50),
    }
)
#: ``(path, statistics row or None, last unit or None)`` of a restored store.
LOADED_ROW = st.tuples(
    st.sampled_from(TREE_PATHS),
    st.one_of(st.none(), STATS_ROW),
    st.one_of(st.none(), st.integers(min_value=0, max_value=39)),
)


def assert_scorers_match(config, tree, dense_store, dict_store, unit):
    """For each split rule, ADA's id scorer over ``dense_store`` (on
    ``tree``'s ids) at ``unit`` equals the rule's score of the reference's
    per-path view, every node."""
    for name in SPLIT_RULES:
        ada = ADAAlgorithm(tree, config.replace(split_rule=name))
        ada._stats, ada._timeunit = dense_store, unit
        score = ada._make_id_scorer()
        for path, node_id in dense_store.tree.path_to_id.items():
            expected = ada.split_rule.score(dict_store.view(path, unit))
            assert score(node_id) == expected, (name, path)


class TestDuplicatedRows:
    """A restore refuses a section that names one path twice: this program
    writes each path at most once per section."""

    @staticmethod
    def saved_state(tree):
        ada = ADAAlgorithm(tree, make_config())
        for counts in ({("a", "a1"): 8, ("b", "b1"): 2}, {("a", "a1"): 9}):
            ada.process_timeunit(counts)
        return ada.state_dict()

    @pytest.mark.parametrize(
        "section", ["series", "reference", "stats", "stats_last_unit"]
    )
    def test_a_path_named_twice_is_refused(self, tree, section):
        state = self.saved_state(tree)
        rows = state[section]
        assert rows, section
        # A second row for the first path.
        rows.append(copy.deepcopy(rows[0]))
        path = tuple(rows[0][0])
        fresh = ADAAlgorithm(tree, make_config())
        message = re.escape(f"{section} rows name {path!r} twice")
        with pytest.raises(CheckpointError, match=message):
            fresh.load_state_dict(state)


class TestSplitStatsStore:
    def test_rows_outside_the_tree_are_refused(self, tree):
        row = {
            "last_weight": 1.0,
            "cumulative_weight": 5.0,
            "ewma_weight": 2.5,
            "observations": 3,
        }
        for stats_rows, last_rows in (
            ([[["a"], dict(row)], [["zz", "unknown"], dict(row)]], []),
            ([[["a"], dict(row)]], [[["a"], 4], [["zz", "unknown"], 2]]),
        ):
            ada = ADAAlgorithm(tree, make_config())
            with pytest.raises(CheckpointError, match="unknown"):
                ada._stats.load(stats_rows, last_rows)

    @pytest.mark.parametrize(
        "stats_rows, last_rows, message",
        [
            # An unobserved node adds +0.0 to its cumulative weight, which
            # is the identity for every value but -0.0.
            (
                [
                    [
                        ["a"],
                        {
                            "last_weight": 0.0,
                            "cumulative_weight": -0.0,
                            "ewma_weight": 0.0,
                            "observations": 1,
                        },
                    ]
                ],
                [],
                "cumulative weight of -0.0",
            ),
            # The sentinel of a node without a last unit, or beyond it.
            ([], [[["b"], NO_LAST_UNIT]], "out of range"),
        ],
    )
    def test_rows_this_program_never_writes_are_refused(
        self, tree, stats_rows, last_rows, message
    ):
        ada = ADAAlgorithm(tree, make_config())
        with pytest.raises(CheckpointError, match=message):
            ada._stats.load(stats_rows, last_rows)

    def test_dense_and_per_path_stats_agree(self, tree):
        """Bit-equal statistics from the dense store and the reference's
        per-path store, each driven through its own update."""
        config = make_config(split_rule="ewma", split_ewma_alpha=0.4)
        dense_store = SplitStatsStore(config, tree)
        dict_store = ReferenceStats(config.split_ewma_alpha)
        feeds = [
            {("a", "a1"): 3.0, ("b", "b1"): 7.0},
            {},
            {},
            {("a", "a1"): 1.0},
            {("b", "b1"): 2.0, ("b", "b2"): 5.0},
        ]
        for unit, counts in enumerate(feeds):
            raw_vec = tree.count_rows({})[0]
            for path, weight in counts.items():
                raw_vec[tree.path_to_id[path]] = weight
            dense_store.update_dense(unit, raw_vec)
            dict_store.update(unit, counts)
        assert_scorers_match(config, tree, dense_store, dict_store, len(feeds))

    @settings(max_examples=150, deadline=None)
    @given(
        # One row per path and section: a restore refuses a path named twice.
        loaded=st.one_of(
            st.none(), st.lists(LOADED_ROW, max_size=6, unique_by=lambda row: row[0])
        ),
        feeds=st.lists(FEED, min_size=1, max_size=12),
    )
    # Three silences, each longer than the last: the decay table grows three
    # times, twice while another node is being updated without a gap.
    @example(
        loaded=None,
        feeds=[
            (0, {("a", "a1"): 2.5, ("b",): 1.25}),
            (3, {("a", "a1"): 0.75}),
            (0, {}),
            (17, {("a", "a1"): 4.0, ("b",): 0.5}),
            (90, {("b",): 3.0, ("b", "b2"): 1.5}),
        ],
    )
    # A statistics row without a last-unit row: no decay when the node first
    # reappears after a silence, the usual decay at its next silence.
    @example(
        loaded=[
            (
                ("a", "a1"),
                {
                    "last_weight": 2.0,
                    "cumulative_weight": 6.5,
                    "ewma_weight": 1.75,
                    "observations": 3,
                },
                None,
            )
        ],
        feeds=[(5, {("a", "a1"): 1.0}), (4, {("a", "a1"): 2.0, ("b",): 0.5})],
    )
    # A last-unit row without statistics: the gap decays an EWMA of zero,
    # then the first observation replaces it.
    @example(
        loaded=[(("b",), None, 30)],
        feeds=[(3, {("b",): 2.0}), (0, {("b",): 4.0, ("a",): 1.0})],
    )
    # ``observations: 0`` with a non-zero EWMA: the next weight replaces it
    # outright, with or without a gap before it.
    @example(
        loaded=[
            (
                ("a", "a2"),
                {
                    "last_weight": 0.0,
                    "cumulative_weight": 0.0,
                    "ewma_weight": 4.0,
                    "observations": 0,
                },
                39,
            ),
            (
                ("b", "b1"),
                {
                    "last_weight": 1.0,
                    "cumulative_weight": 1.0,
                    "ewma_weight": 3.0,
                    "observations": 0,
                },
                12,
            ),
        ],
        feeds=[(0, {("a", "a2"): 3.0, ("b", "b1"): 2.0}), (2, {("a", "a2"): 1.0})],
    )
    def test_the_masked_pass_equals_the_scalar_loop(self, loaded, feeds):
        """``update_dense`` against the reference's per-path update,
        fed the same units: all-zero units, first-ever observations,
        non-integer weights, silent gaps that outgrow the decay table, and
        stores restored from rows where a node has a statistics row but no
        last-unit row (or the reverse).  Checkpoint rows and every node's
        score under each split rule must be equal, exactly."""
        config = make_config(split_rule="ewma", split_ewma_alpha=0.4)
        tree = HierarchyTree([path for path in TREE_PATHS if len(path) == 2])
        dense_store = SplitStatsStore(config, tree)
        dict_store = ReferenceStats(config.split_ewma_alpha)
        unit, last_seen, longest_gap = 0, {}, 0
        if loaded is not None:
            stats_rows = [
                [list(path), dict(row)] for path, row, _ in loaded if row is not None
            ]
            last_rows = [
                [list(path), last] for path, _, last in loaded if last is not None
            ]
            for store in (dense_store, dict_store):
                store.load(stats_rows, last_rows)
            last_seen = {tuple(path): last for path, last in last_rows}
            unit = 40
        for silent_units, weights in feeds:
            unit += silent_units
            raw_vec = tree.count_rows({})[0]
            for path, weight in weights.items():
                raw_vec[tree.path_to_id[path]] = weight
                if path in last_seen:
                    longest_gap = max(longest_gap, unit - last_seen[path] - 1)
                last_seen[path] = unit
            dense_store.update_dense(unit, raw_vec)
            dict_store.update(unit, weights)
            unit += 1

        def by_path(rows):
            return sorted(rows, key=lambda row: row[0])

        dense_rows, dict_rows = dense_store.emit(), dict_store.emit()
        assert by_path(dense_rows[0]) == by_path(dict_rows[0])
        assert by_path(dense_rows[1]) == by_path(dict_rows[1])
        assert_scorers_match(config, tree, dense_store, dict_store, unit)
        # The table covers the longest silence decayed and nothing more.
        assert len(dense_store._decay) == longest_gap + 1
