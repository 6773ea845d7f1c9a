"""Unit tests for :mod:`repro.datagen.anomalies`."""

import pytest

from repro.datagen.anomalies import AnomalyInjector, InjectedAnomaly, random_injection_plan
from repro.exceptions import DataGenerationError
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.attributes import encode_row
from repro.streaming.clock import SimulationClock


@pytest.fixture
def tree():
    return HierarchyTree(
        [("a", "a1"), ("a", "a2"), ("b", "b1"), ("b", "b2")]
    )


@pytest.fixture
def clock():
    return SimulationClock(delta=100.0)


class TestInjectedAnomaly:
    def test_validation(self):
        with pytest.raises(DataGenerationError):
            InjectedAnomaly(("a",), start=0.0, duration=0.0, extra_rate=1.0)
        with pytest.raises(DataGenerationError):
            InjectedAnomaly(("a",), start=0.0, duration=10.0, extra_rate=0.0)

    def test_active_window(self):
        anomaly = InjectedAnomaly(("a",), start=100.0, duration=50.0, extra_rate=1.0)
        assert anomaly.end == 150.0

    def test_timeunits_overlap(self, clock):
        anomaly = InjectedAnomaly(("a",), start=150.0, duration=100.0, extra_rate=1.0)
        assert list(anomaly.timeunits(clock)) == [1, 2]

    @pytest.mark.parametrize("epoch", [0.0, 1_700_000_100.0], ids=["epoch-0", "wall-clock"])
    def test_an_anomaly_one_unit_long_covers_one_unit(self, epoch):
        # At 1.7e9 s, ``end - 1e-9`` rounds back to ``end`` and would name the
        # next unit as well.
        clock = SimulationClock(delta=900.0)
        anomaly = InjectedAnomaly(("a",), start=epoch, duration=900.0, extra_rate=1.0)
        first = clock.timeunit_of(epoch)
        assert list(anomaly.timeunits(clock)) == [first]
        if epoch:
            assert first == 1888889

    def test_an_end_past_a_boundary_reaches_the_next_unit(self):
        clock = SimulationClock(delta=900.0)
        start = 1_700_000_100.0
        anomaly = InjectedAnomaly(("a",), start=start, duration=900.5, extra_rate=1.0)
        assert list(anomaly.timeunits(clock)) == [1888889, 1888890]


class TestAnomalyInjector:
    def test_rejects_unknown_node(self, tree):
        bad = InjectedAnomaly(("zzz",), start=0.0, duration=10.0, extra_rate=1.0)
        with pytest.raises(DataGenerationError):
            AnomalyInjector(tree, [bad])

    def test_records_only_in_active_units(self, tree, clock):
        anomaly = InjectedAnomaly(("a",), start=100.0, duration=100.0, extra_rate=0.5)
        injector = AnomalyInjector(tree, [anomaly], seed=1)
        rng = injector.new_rng()
        before = injector.unit_rows(0.0, clock, rng)
        during = injector.unit_rows(100.0, clock, rng)
        after = injector.unit_rows(300.0, clock, rng)
        assert before == ([], [], [])
        assert after == ([], [], [])
        assert len(during[0]) == pytest.approx(50, abs=15)

    def test_records_target_leaves_of_subtree(self, tree, clock):
        other = InjectedAnomaly(("b",), start=500.0, duration=100.0, extra_rate=1.0)
        anomaly = InjectedAnomaly(("a",), start=0.0, duration=100.0, extra_rate=0.3)
        injector = AnomalyInjector(tree, [other, anomaly], seed=2)
        timestamps, leaves, sources = injector.unit_rows(0.0, clock, injector.new_rng())
        assert leaves
        assert all(leaf[0] == "a" for leaf in leaves)
        assert all(0.0 <= ts < 100.0 for ts in timestamps)
        assert sources == [1] * len(leaves)

    def test_every_pass_draws_the_same_rows(self, tree, clock):
        anomaly = InjectedAnomaly(("a",), start=0.0, duration=100.0, extra_rate=0.3)
        injector = AnomalyInjector(tree, [anomaly], seed=2)
        first = injector.unit_rows(0.0, clock, injector.new_rng())
        assert injector.unit_rows(0.0, clock, injector.new_rng()) == first

    def test_attributes_are_encoded_as_the_writers_encode_them(self):
        anomaly = InjectedAnomaly(("a",), start=0.0, duration=1.0, extra_rate=1.0, label="x")
        assert anomaly.attributes == {"injected": True, "label": "x"}
        assert encode_row(anomaly.attributes) == b'{"injected": true, "label": "x"}'

    def test_ground_truth_pairs(self, tree, clock):
        anomaly = InjectedAnomaly(("b", "b1"), start=150.0, duration=100.0, extra_rate=1.0)
        injector = AnomalyInjector(tree, [anomaly], seed=3)
        assert injector.ground_truth(clock) == {(("b", "b1"), 1), (("b", "b1"), 2)}

    def test_add_validates_node(self, tree):
        injector = AnomalyInjector(tree, [], seed=0)
        with pytest.raises(DataGenerationError):
            injector.add(InjectedAnomaly(("nope",), start=0.0, duration=1.0, extra_rate=1.0))


class TestRandomPlan:
    def test_plan_size_and_determinism(self, tree, clock):
        plan_a = random_injection_plan(tree, clock, trace_duration=10000.0, count=5, seed=9)
        plan_b = random_injection_plan(tree, clock, trace_duration=10000.0, count=5, seed=9)
        assert len(plan_a) == 5
        assert [(a.node_path, a.start) for a in plan_a] == [
            (b.node_path, b.start) for b in plan_b
        ]

    def test_warmup_respected(self, tree, clock):
        plan = random_injection_plan(
            tree, clock, trace_duration=50000.0, count=8, warmup=20000.0, seed=4,
            duration_range=(1000.0, 2000.0),
        )
        assert all(a.start >= 20000.0 for a in plan)

    def test_depth_bounds_respected(self, tree, clock):
        plan = random_injection_plan(
            tree, clock, trace_duration=10000.0, count=6, min_depth=2, max_depth=2, seed=5
        )
        assert all(len(a.node_path) == 2 for a in plan)

    def test_invalid_duration_rejected(self, tree, clock):
        with pytest.raises(DataGenerationError):
            random_injection_plan(tree, clock, trace_duration=100.0, count=1, warmup=200.0)

    def test_negative_count_rejected(self, tree, clock):
        assert random_injection_plan(tree, clock, trace_duration=1000.0, count=0) == []
        with pytest.raises(DataGenerationError, match="count"):
            random_injection_plan(tree, clock, trace_duration=1000.0, count=-1)

    def test_a_depth_range_with_no_node_rejected(self, tree, clock):
        with pytest.raises(DataGenerationError, match="depth range"):
            random_injection_plan(tree, clock, trace_duration=1000.0, count=1, min_depth=3)

    def test_plan_is_sorted_by_start(self, tree, clock):
        plan = random_injection_plan(tree, clock, trace_duration=50000.0, count=10, seed=6)
        starts = [a.start for a in plan]
        assert starts == sorted(starts)
