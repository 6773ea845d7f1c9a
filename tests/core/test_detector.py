"""Unit tests for :mod:`repro.core.detector` (Definition 4)."""

import pytest

from repro.core.config import TiresiasConfig
from repro.core.detector import MINIMUM_FORECAST, Anomaly, ThresholdDetector


@pytest.fixture
def detector():
    config = TiresiasConfig(ratio_threshold=2.0, difference_threshold=10.0)
    return ThresholdDetector(config)


class TestThresholdRule:
    def test_both_thresholds_needed(self, detector):
        # Ratio exceeded (3x) but absolute excess too small (4 < 10).
        assert not detector.is_anomalous(actual=6.0, forecast=2.0)
        # Absolute excess exceeded (20) but ratio too small (1.2x < 2).
        assert not detector.is_anomalous(actual=120.0, forecast=100.0)
        # Both exceeded.
        assert detector.is_anomalous(actual=50.0, forecast=10.0)

    def test_peak_false_positive_suppressed(self, detector):
        """Large absolute excess at a daily peak with a small ratio is not an anomaly."""
        assert not detector.is_anomalous(actual=1100.0, forecast=1000.0)

    def test_dip_false_positive_suppressed(self, detector):
        """A few stray records at a quiet time (huge ratio, tiny excess) is not an anomaly."""
        assert not detector.is_anomalous(actual=3.0, forecast=0.1)

    def test_zero_forecast_uses_floor(self, detector):
        # With the minimum-forecast floor, a genuine burst from nothing alarms.
        assert detector.is_anomalous(actual=50.0, forecast=0.0)
        assert not detector.is_anomalous(actual=5.0, forecast=0.0)

    def test_the_forecast_floor_is_the_same_on_both_paths(self):
        detector = ThresholdDetector(
            TiresiasConfig(ratio_threshold=2.0, difference_threshold=0.1)
        )
        # Against a zero forecast the ratio is taken over the 0.5 floor:
        # 1.2 / 0.5 = 2.4 alarms, 0.9 / 0.5 = 1.8 does not.
        assert MINIMUM_FORECAST == 0.5
        assert detector.is_anomalous(actual=1.2, forecast=0.0)
        assert not detector.is_anomalous(actual=0.9, forecast=0.0)
        paths = [("a",), ("b",)]
        flagged = detector.check_many(paths, 3, [1.2, 0.9], [0.0, 0.0])
        assert [a.node_path for a in flagged] == [("a",)]
        assert [a.node_path for a in detector.check_many(paths[1:], 3, [0.9], [0.0])] == []

    def test_check_returns_anomaly_object(self, detector):
        anomaly = detector.check(("a", "b"), 7, actual=50.0, forecast=10.0, depth=2, source="test")
        assert isinstance(anomaly, Anomaly)
        assert anomaly.node_path == ("a", "b")
        assert anomaly.timeunit == 7
        assert anomaly.depth == 2
        assert anomaly.metadata["source"] == "test"

    def test_check_returns_none_for_normal(self, detector):
        assert detector.check(("a",), 0, actual=10.0, forecast=9.0) is None


class TestAnomalyObject:
    def test_ratio_and_excess(self):
        anomaly = Anomaly(("a",), 3, actual=30.0, forecast=10.0)
        assert anomaly.ratio == pytest.approx(3.0)
        assert anomaly.excess == pytest.approx(20.0)

    def test_ratio_with_zero_forecast(self):
        anomaly = Anomaly(("a",), 3, actual=5.0, forecast=0.0)
        assert anomaly.ratio == float("inf")
        quiet = Anomaly(("a",), 3, actual=0.0, forecast=0.0)
        assert quiet.ratio == 0.0

    def test_to_dict_round_trip_fields(self):
        anomaly = Anomaly(("a", "b"), 5, actual=12.0, forecast=3.0, depth=2, metadata={"k": 1})
        data = anomaly.to_dict()
        assert data["node_path"] == ["a", "b"]
        assert data["timeunit"] == 5
        assert data["metadata"] == {"k": 1}
