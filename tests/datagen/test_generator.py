"""Unit tests for :mod:`repro.datagen.generator`."""

import pytest

from repro.datagen.anomalies import InjectedAnomaly
from repro.datagen.arrival import SeasonalRateModel
from repro.datagen.generator import TraceGenerator, counts_per_timeunit
from repro.exceptions import DataGenerationError
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.batch import RecordBatch
from repro.streaming.clock import HOUR, SimulationClock


def rows(records):
    return [(r.timestamp, r.category, dict(r.attributes)) for r in records]


@pytest.fixture
def tree():
    return HierarchyTree(
        [("a", "a1"), ("a", "a2"), ("b", "b1"), ("b", "b2")]
    )


@pytest.fixture
def clock():
    return SimulationClock(delta=900.0)


def make_generator(tree, clock, **overrides):
    defaults = dict(
        tree=tree,
        rate_model=SeasonalRateModel(
            base_rate=200.0 / HOUR, diurnal_strength=0.3, weekly_strength=0.0, volatility=0.0
        ),
        clock=clock,
        seed=5,
    )
    defaults.update(overrides)
    return TraceGenerator(**defaults)


class TestGeneration:
    def test_records_are_time_ordered_and_in_range(self, tree, clock):
        generator = make_generator(tree, clock)
        records = generator.generate_list(4 * HOUR)
        assert records
        timestamps = [r.timestamp for r in records]
        assert timestamps == sorted(timestamps)
        assert all(0 <= ts < 4 * HOUR for ts in timestamps)

    def test_categories_are_tree_leaves(self, tree, clock):
        generator = make_generator(tree, clock)
        records = generator.generate_list(2 * HOUR)
        leaves = set(tree.leaf_paths())
        assert all(r.category in leaves for r in records)

    def test_reproducible_for_same_seed(self, tree, clock):
        a = make_generator(tree, clock, seed=11).generate_list(2 * HOUR)
        b = make_generator(tree, clock, seed=11).generate_list(2 * HOUR)
        assert [(r.timestamp, r.category) for r in a] == [
            (r.timestamp, r.category) for r in b
        ]

    def test_repeated_calls_replay_identical_trace(self, tree, clock):
        anomaly = InjectedAnomaly(
            node_path=("a",), start=HOUR, duration=HOUR, extra_rate=0.05
        )
        generator = make_generator(tree, clock, anomalies=(anomaly,))
        first = generator.generate_list(4 * HOUR)
        second = generator.generate_list(4 * HOUR)
        assert [(r.timestamp, r.category, dict(r.attributes)) for r in first] == [
            (r.timestamp, r.category, dict(r.attributes)) for r in second
        ]

    def test_interleaved_iterators_each_draw_the_whole_trace(self, tree, clock):
        def build():
            anomaly = InjectedAnomaly(("a",), start=HOUR, duration=2 * HOUR, extra_rate=0.05)
            return make_generator(tree, clock, anomalies=(anomaly,))

        generator = build()
        first, second = generator.generate(4 * HOUR), generator.generate(4 * HOUR)
        pairs = list(zip(first, second))
        expected = rows(build().generate_list(4 * HOUR))
        assert len(pairs) == len(expected)
        assert rows(a for a, _ in pairs) == expected
        assert rows(b for _, b in pairs) == expected

    def test_the_list_is_one_batch_numbered_in_first_appearance_order(
        self, tree, clock
    ):
        batch = make_generator(tree, clock).generate_list(3 * HOUR)
        assert isinstance(batch, RecordBatch)
        assert batch.code_dictionary == list(dict.fromkeys(batch.categories))

    def test_a_pass_over_the_attributes_equals_parsing_every_row(self, tree, clock):
        anomalies = (
            InjectedAnomaly(("a",), start=HOUR, duration=2 * HOUR, extra_rate=0.05),
            InjectedAnomaly(("b",), start=0.0, duration=HOUR, extra_rate=0.1, label="é"),
        )
        column = make_generator(tree, clock, anomalies=anomalies).generate_list(
            4 * HOUR
        ).attributes
        passed = list(column)
        assert passed == [column[i] for i in range(len(column))]
        assert {row.get("label") for row in passed} == {None, "injected", "é"}
        # Every row is a dict of its own.
        assert len({id(row) for row in passed}) == len(passed)
        assert list(column[5:40]) == passed[5:40]

    def test_volume_tracks_rate(self, tree, clock):
        generator = make_generator(tree, clock)
        records = generator.generate_list(12 * HOUR)
        expected = sum(
            generator.rate_model.expected_count(i * clock.delta, clock)
            for i in range(int(12 * HOUR // clock.delta))
        )
        assert len(records) == pytest.approx(expected, rel=0.2)

    def test_duration_validation(self, tree, clock):
        generator = make_generator(tree, clock)
        with pytest.raises(DataGenerationError):
            generator.generate_list(0.0)
        with pytest.raises(DataGenerationError):
            generator.generate_list(10.0)  # less than one timeunit

    def test_tree_without_leaves_rejected(self, clock):
        """A bare root is no leaf to sample from."""
        with pytest.raises(DataGenerationError, match="no leaves to sample from"):
            make_generator(HierarchyTree([]), clock)


class TestTopLevelWeights:
    def test_weights_shape_first_level_mix(self, tree, clock):
        generator = make_generator(
            tree, clock, top_level_weights={"a": 90.0, "b": 10.0}
        )
        records = generator.generate_list(12 * HOUR)
        share_a = sum(1 for r in records if r.category[0] == "a") / len(records)
        assert share_a == pytest.approx(0.9, abs=0.05)

    def test_zero_weight_categories_never_sampled(self, tree, clock):
        generator = make_generator(tree, clock, top_level_weights={"a": 1.0, "b": 0.0})
        records = generator.generate_list(6 * HOUR)
        assert all(r.category[0] == "a" for r in records)

    def test_all_zero_weights_rejected(self, tree, clock):
        with pytest.raises(DataGenerationError):
            make_generator(tree, clock, top_level_weights={"a": 0.0, "b": 0.0})


class TestInjection:
    def test_injected_records_present_and_ground_truth_exposed(self, tree, clock):
        anomaly = InjectedAnomaly(("b",), start=2 * HOUR, duration=HOUR, extra_rate=0.05)
        generator = make_generator(tree, clock, anomalies=[anomaly])
        records = generator.generate_list(4 * HOUR)
        injected = [r for r in records if r.attributes.get("injected")]
        assert injected
        assert all(r.category[0] == "b" for r in injected)
        truth = generator.ground_truth()
        assert all(path == ("b",) for path, _ in truth)


class TestCountsPerTimeunit:
    def test_counts_match_record_totals(self, tree, clock):
        generator = make_generator(tree, clock)
        records = generator.generate_list(3 * HOUR)
        num_units = int(3 * HOUR // clock.delta)
        units = counts_per_timeunit(records, clock, num_units)
        assert len(units) == num_units
        assert sum(sum(u.values()) for u in units) == len(records)

    def test_out_of_range_records_ignored(self, tree, clock):
        generator = make_generator(tree, clock)
        records = generator.generate_list(2 * HOUR)
        units = counts_per_timeunit(records, clock, num_units=2)
        assert len(units) == 2
        assert sum(sum(u.values()) for u in units) <= len(records)
