"""Unit tests for :mod:`repro.evaluation.metrics`."""

import pytest

from repro.core.detector import Anomaly
from repro.evaluation.metrics import (
    ConfusionMetrics,
    compare_with_reference,
    confusion_from_sets,
    detection_rate,
    match_against_ground_truth,
)


def anomaly(path, unit):
    return Anomaly(tuple(path), unit, actual=50.0, forecast=10.0, depth=len(path))


class TestConfusionMetrics:
    def test_derived_ratios(self):
        metrics = ConfusionMetrics(true_positives=8, false_positives=2,
                                   true_negatives=88, false_negatives=2)
        assert metrics.total == 100
        assert metrics.accuracy == pytest.approx(0.96)
        assert metrics.precision == pytest.approx(0.8)
        assert metrics.recall == pytest.approx(0.8)

    def test_degenerate_cases(self):
        empty = ConfusionMetrics(0, 0, 0, 0)
        assert empty.accuracy == 1.0
        assert empty.precision == 1.0
        assert empty.recall == 1.0

    def test_confusion_from_sets(self):
        predicted = {(("a",), 1), (("b",), 2)}
        truth = {(("a",), 1), (("c",), 3)}
        universe = {(("a",), 1), (("b",), 2), (("c",), 3), (("d",), 4)}
        metrics = confusion_from_sets(predicted, truth, universe)
        assert metrics.true_positives == 1
        assert metrics.false_positives == 1
        assert metrics.false_negatives == 1
        assert metrics.true_negatives == 1

    def test_universe_extended_with_predictions(self):
        metrics = confusion_from_sets({(("x",), 1)}, set(), set())
        assert metrics.false_positives == 1
        assert metrics.total == 1


class TestReferenceComparison:
    def test_true_alarm_requires_same_unit_and_subtree(self):
        reference = [anomaly(("vho-1",), 10)]
        ours = [anomaly(("vho-1", "io-2"), 10)]
        tracked = [(("vho-1", "io-2"), 10), (("vho-2",), 10)]
        result = compare_with_reference(ours, reference, tracked)
        assert result.true_alarms == 1
        assert result.missed_anomalies == 0
        assert result.new_anomalies == 0
        assert result.true_negatives == 1  # vho-2 untouched

    def test_missed_anomaly(self):
        reference = [anomaly(("vho-1",), 10)]
        ours = [anomaly(("vho-2",), 10)]
        result = compare_with_reference(ours, reference, [])
        assert result.missed_anomalies == 1
        assert result.new_anomalies == 1

    def test_wrong_timeunit_does_not_match(self):
        reference = [anomaly(("vho-1",), 10)]
        ours = [anomaly(("vho-1",), 11)]
        result = compare_with_reference(ours, reference, [])
        assert result.true_alarms == 0
        assert result.new_anomalies == 1

    def test_time_tolerance_matches_adjacent_units(self):
        reference = [anomaly(("vho-1",), 10)]
        ours = [anomaly(("vho-1", "io-1"), 12)]
        strict = compare_with_reference(ours, reference, [])
        relaxed = compare_with_reference(ours, reference, [], time_tolerance=2)
        assert strict.true_alarms == 0
        assert relaxed.true_alarms == 1
        assert relaxed.new_anomalies == 0

    def test_type_ratios(self):
        reference = [anomaly(("vho-1",), 1), anomaly(("vho-2",), 2)]
        ours = [anomaly(("vho-1", "io-1"), 1), anomaly(("vho-3",), 5)]
        tracked = [(("vho-1", "io-1"), 1), (("vho-3",), 5), (("vho-4",), 7), (("vho-5",), 8)]
        result = compare_with_reference(ours, reference, tracked)
        assert result.true_alarms == 1
        assert result.missed_anomalies == 1
        assert result.new_anomalies == 1
        assert result.true_negatives == 2
        assert result.type2 == pytest.approx(0.5)
        assert result.type3 == pytest.approx(2 / 3)
        assert result.type1_accuracy == pytest.approx(3 / 5)

    def test_empty_inputs_give_perfect_scores(self):
        result = compare_with_reference([], [], [])
        assert result.type1_accuracy == 1.0
        assert result.type2 == 1.0
        assert result.type3 == 1.0


class TestGroundTruthMatching:
    def test_detection_within_tolerance(self):
        truth = {(("a", "a1"), 10)}
        detections = [anomaly(("a",), 11)]
        detected, total = match_against_ground_truth(detections, truth, tolerance_units=1)
        assert (detected, total) == (1, 1)
        assert detection_rate(detections, truth) == 1.0

    def test_descendant_detection_counts(self):
        truth = {(("a",), 5)}
        detections = [anomaly(("a", "a1"), 5)]
        assert detection_rate(detections, truth) == 1.0

    def test_unrelated_detection_does_not_count(self):
        truth = {(("a",), 5)}
        detections = [anomaly(("b",), 5)]
        assert detection_rate(detections, truth) == 0.0

    def test_empty_ground_truth_is_perfect(self):
        assert detection_rate([], set()) == 1.0
