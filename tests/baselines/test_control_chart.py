"""Unit tests for :mod:`repro.baselines.control_chart`."""

import pytest

from repro.baselines.control_chart import ControlChartDetector
from repro.exceptions import ConfigurationError
from repro.hierarchy.tree import HierarchyTree


def alarmed_paths(detector, tree):
    """The paths that alarm when every leaf jumps from 10 to 100 records."""
    leaves = tree.leaf_paths()
    for _ in range(30):
        detector.process_timeunit({leaf: 10 for leaf in leaves})
    return {alarm.node_path for alarm in detector.process_timeunit({leaf: 100 for leaf in leaves})}


@pytest.fixture
def tree():
    return HierarchyTree(
        [
            ("vho-1", "io-1", "co-1"),
            ("vho-1", "io-1", "co-2"),
            ("vho-1", "io-2", "co-3"),
            ("vho-2", "io-3", "co-4"),
        ]
    )


class TestConfiguration:
    def test_validation(self, tree):
        with pytest.raises(ConfigurationError):
            ControlChartDetector(tree, depth=0)
        with pytest.raises(ConfigurationError):
            ControlChartDetector(tree, k_sigma=0)
        with pytest.raises(ConfigurationError):
            ControlChartDetector(tree, smoothing=0)
        with pytest.raises(ConfigurationError):
            ControlChartDetector(tree, min_observations=0)

    def test_monitors_first_level_by_default(self, tree):
        detector = ControlChartDetector(tree)
        assert alarmed_paths(detector, tree) == {("vho-1",), ("vho-2",)}

    def test_can_monitor_deeper_level(self, tree):
        detector = ControlChartDetector(tree, depth=2)
        assert alarmed_paths(detector, tree) == {
            ("vho-1", "io-1"),
            ("vho-1", "io-2"),
            ("vho-2", "io-3"),
        }


class TestDetection:
    def test_no_alarms_during_warmup(self, tree):
        detector = ControlChartDetector(tree, min_observations=10)
        for _ in range(5):
            alarms = detector.process_timeunit({("vho-1", "io-1", "co-1"): 100})
            assert alarms == []

    def test_spike_on_monitored_aggregate_alarms(self, tree):
        detector = ControlChartDetector(tree, min_observations=8, k_sigma=3.0, min_excess=5.0)
        for _ in range(30):
            detector.process_timeunit({("vho-1", "io-1", "co-1"): 10, ("vho-2", "io-3", "co-4"): 10})
        alarms = detector.process_timeunit(
            {("vho-1", "io-1", "co-1"): 100, ("vho-2", "io-3", "co-4"): 10}
        )
        assert len(alarms) == 1
        assert alarms[0].node_path == ("vho-1",)
        assert alarms[0].depth == 1

    def test_stable_traffic_produces_no_alarms(self, tree):
        detector = ControlChartDetector(tree, min_observations=8)
        alarms = []
        for _ in range(40):
            alarms += detector.process_timeunit({("vho-1", "io-1", "co-1"): 10})
        assert alarms == []

    def test_cannot_localize_below_monitored_level(self, tree):
        """The reference method reports at the VHO level even for deep events."""
        detector = ControlChartDetector(tree, min_observations=8)
        for _ in range(30):
            detector.process_timeunit({("vho-1", "io-1", "co-1"): 10})
        alarms = detector.process_timeunit({("vho-1", "io-2", "co-3"): 120})
        assert alarms
        assert all(len(a.node_path) == 1 for a in alarms)

    def test_small_absolute_excess_suppressed(self, tree):
        detector = ControlChartDetector(tree, min_observations=8, min_excess=20.0)
        for _ in range(30):
            detector.process_timeunit({("vho-1", "io-1", "co-1"): 2})
        alarms = detector.process_timeunit({("vho-1", "io-1", "co-1"): 12})
        assert alarms == []

    def test_timeunit_indices_tracked(self, tree):
        detector = ControlChartDetector(tree, min_observations=2)
        detector.process_timeunit({}, timeunit=5)
        detector.process_timeunit({}, timeunit=6)
        alarms = detector.process_timeunit({("vho-1", "io-1", "co-1"): 500}, timeunit=7)
        assert all(a.timeunit == 7 for a in alarms)


class TestSeasonalBaseline:
    def test_invalid_period_rejected(self, tree):
        with pytest.raises(ConfigurationError):
            ControlChartDetector(tree, seasonal_period=0)

    def test_seasonal_chart_ignores_recurring_daily_peak(self, tree):
        """A per-phase baseline must not alarm on the same peak every cycle."""
        period = 8
        seasonal = ControlChartDetector(
            tree, min_observations=2 * period, seasonal_period=period, k_sigma=3.0
        )
        flat = ControlChartDetector(tree, min_observations=2 * period, k_sigma=3.0)
        seasonal_alarms = 0
        flat_alarms = 0
        for unit in range(8 * period):
            # A strong recurring peak at phase 0, low traffic elsewhere.
            value = 100 if unit % period == 0 else 5
            seasonal_alarms += len(
                seasonal.process_timeunit({("vho-1", "io-1", "co-1"): value}, unit)
            )
            flat_alarms += len(
                flat.process_timeunit({("vho-1", "io-1", "co-1"): value}, unit)
            )
        assert seasonal_alarms <= flat_alarms
        assert seasonal_alarms == 0

    def test_seasonal_chart_still_catches_real_spike(self, tree):
        period = 8
        detector = ControlChartDetector(
            tree, min_observations=2 * period, seasonal_period=period, k_sigma=3.0
        )
        for unit in range(6 * period):
            value = 20 if unit % period == 0 else 5
            detector.process_timeunit({("vho-1", "io-1", "co-1"): value}, unit)
        alarms = detector.process_timeunit({("vho-1", "io-1", "co-1"): 200}, 6 * period)
        assert len(alarms) == 1
