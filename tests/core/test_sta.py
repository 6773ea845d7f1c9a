"""Unit tests for :mod:`repro.core.sta` (the strawman algorithm)."""

from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.core.hhh import accumulate_raw_weights, compute_shhh
from repro.core.sta import STAAlgorithm
from repro.engine.session import DetectionSession
from repro.hierarchy.index import HierarchyIndex
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.batch import iter_record_batches


@pytest.fixture
def tree():
    return HierarchyTree.from_leaf_paths(
        [("a", "a1"), ("a", "a2"), ("b", "b1"), ("b", "b2")]
    )


@pytest.fixture
def config():
    return TiresiasConfig(
        theta=5.0,
        ratio_threshold=2.0,
        difference_threshold=4.0,
        window_units=16,
        track_root=False,
        forecast=ForecastConfig(season_lengths=(4,), fallback_alpha=0.5),
    )


class TestHeavyHitterTracking:
    def test_heavy_hitters_match_offline_definition(self, tree, config):
        sta = STAAlgorithm(tree, config)
        counts_sequence = [
            {("a", "a1"): 8},
            {("a", "a1"): 2, ("a", "a2"): 2, ("b", "b1"): 3},
            {("b", "b1"): 9, ("b", "b2"): 6},
        ]
        for counts in counts_sequence:
            result = sta.process_timeunit(counts)
            expected = compute_shhh(tree, counts, config.theta).shhh
            assert result.heavy_hitters == expected

    def test_timeunit_counter_increments(self, tree, config):
        sta = STAAlgorithm(tree, config)
        sta.process_timeunit({("a", "a1"): 8})
        result = sta.process_timeunit({("a", "a1"): 8})
        assert result.timeunit == 1
        assert sta.current_timeunit == 1

    def test_track_root_forces_root_series(self, tree):
        config = TiresiasConfig(
            theta=50.0, window_units=8, track_root=True,
            forecast=ForecastConfig(season_lengths=(4,)),
        )
        sta = STAAlgorithm(tree, config)
        result = sta.process_timeunit({("a", "a1"): 1})
        assert () in result.heavy_hitters


class TestSeriesReconstruction:
    def test_series_covers_window_history(self, tree, config):
        sta = STAAlgorithm(tree, config)
        for value in (6, 7, 8):
            sta.process_timeunit({("a", "a1"): value})
        series = sta.series_for(("a", "a1"))
        assert series == [6.0, 7.0, 8.0]

    def test_series_discounts_heavy_children(self, tree, config):
        sta = STAAlgorithm(tree, config)
        # a1 is heavy (8), a2 light (3): parent 'a' series must only count a2.
        sta.process_timeunit({("a", "a1"): 8, ("a", "a2"): 3})
        series_a = sta.series_for(("a",))
        assert series_a == [3.0]

    def test_window_truncates_to_ell(self, tree, config):
        sta = STAAlgorithm(tree, config)
        for i in range(config.window_units + 10):
            sta.process_timeunit({("a", "a1"): 6})
        assert len(sta.series_for(("a", "a1"))) == config.window_units


class TestDetection:
    def test_spike_detected_after_stable_history(self, tree, config):
        sta = STAAlgorithm(tree, config)
        for _ in range(10):
            sta.process_timeunit({("a", "a1"): 6})
        result = sta.process_timeunit({("a", "a1"): 40})
        assert any(a.node_path == ("a", "a1") for a in result.anomalies)

    def test_no_anomaly_for_stable_series(self, tree, config):
        sta = STAAlgorithm(tree, config)
        results = [sta.process_timeunit({("a", "a1"): 6}) for _ in range(10)]
        assert all(not r.anomalies for r in results[2:])

    def test_stage_timers_accumulate(self, tree, config):
        sta = STAAlgorithm(tree, config)
        for _ in range(3):
            sta.process_timeunit({("a", "a1"): 6})
        assert sta.stage_seconds["creating_time_series"] > 0.0
        assert sta.stage_seconds["updating_hierarchies"] > 0.0

    def test_memory_units_grow_with_window(self, tree, config):
        sta = STAAlgorithm(tree, config)
        sta.process_timeunit({("a", "a1"): 6})
        early = sta.memory_units()
        for _ in range(10):
            sta.process_timeunit({("a", "a1"): 6})
        assert sta.memory_units() > early


#: Leaves three and four levels deep under two top-level nodes.
DEEP_LEAVES = [
    (top, f"{top}{mid}", f"{top}{mid}{leaf}", *deep)
    for top in ("a", "b")
    for mid in range(2)
    for leaf in range(2)
    for deep in ([()] if leaf else [("x",), ("y",)])
]


class TestExactSeries:
    """STA's series is Definition 3: a heavy hitter's raw weight minus those
    of its *maximal* heavy descendants — a heavy grandchild under a light
    child included — which is SHHH's modified weight for the newest unit."""

    def test_a_heavy_grandchild_under_a_light_child_is_discounted(self):
        tree = HierarchyTree.from_leaf_paths([("a", "a1", "x"), ("a", "a1", "y"), ("a", "a2")])
        config = TiresiasConfig(
            theta=5.0, window_units=8, track_root=False, allow_root_heavy=False,
            forecast=ForecastConfig(season_lengths=(2,)),
        )
        sta = STAAlgorithm(tree, config)
        # x is heavy (6); a1 keeps only y's 1; a collects a1's 1 and a2's 4.
        result = sta.process_timeunit({("a", "a1", "x"): 6, ("a", "a1", "y"): 1, ("a", "a2"): 4})
        assert result.heavy_hitters == {("a",), ("a", "a1", "x")}
        assert sta.series_for(("a",)) == [5.0]
        assert result.actuals[("a",)] == 5.0

    @settings(max_examples=80, deadline=None)
    @given(
        units=st.lists(
            st.dictionaries(
                st.sampled_from(DEEP_LEAVES), st.integers(min_value=0, max_value=9), max_size=12
            ),
            min_size=1,
            max_size=6,
        ),
        theta=st.integers(min_value=1, max_value=12),
        track_root=st.booleans(),
    )
    def test_last_value_is_the_sweeps_modified_weight(self, units, theta, track_root):
        tree = HierarchyTree.from_leaf_paths(DEEP_LEAVES)
        config = TiresiasConfig(
            theta=float(theta),
            window_units=4,
            track_root=track_root,
            forecast=ForecastConfig(season_lengths=(2,)),
        )
        sta = STAAlgorithm(tree, config)
        index = HierarchyIndex(tree)
        for counts in units:
            result = sta.process_timeunit(counts)
            _raw, modified, _heavy = index.sweep(index.count_rows(counts), config.theta)
            for path in result.heavy_hitters:
                expected = float(modified[0, index.path_to_id[path]])
                assert sta.series_for(path)[-1] == expected, path
                assert result.actuals[path] == expected, path


class TestRetainedWeightTables:
    def test_tables_are_the_swept_raw_weights_in_node_id_order(
        self, golden_spec, golden_trace_loader
    ):
        """A closed unit's retained table lists the nodes with weight in
        node-id order, and as a mapping it is the scalar walk
        (:func:`accumulate_raw_weights`) of that unit's counts — checked
        after every batch over the whole trace."""
        tree, clock, records = golden_trace_loader(golden_spec)
        unit_counts = defaultdict(Counter)
        for record in records:
            unit_counts[clock.timeunit_of(record.timestamp)][record.category] += 1
        node_id = HierarchyIndex(tree).path_to_id
        session = DetectionSession(
            tree, golden_spec.detector_config(), algorithm="sta", clock=clock
        )
        checked = 0
        for batch in iter_record_batches(records, 512):
            session.ingest_record_batch(batch)
            state = session.algorithm.state_dict()
            tables = state["unit_weights"]
            first = state["timeunit"] - len(tables) + 1
            for unit, table in enumerate(tables, start=first):
                paths = [tuple(path) for path, _weight in table]
                assert [node_id[path] for path in paths] == sorted(
                    node_id[path] for path in paths
                )
                assert dict(
                    zip(paths, [weight for _path, weight in table])
                ) == accumulate_raw_weights(tree, unit_counts[unit])
                checked += 1
        assert checked > len(unit_counts)
