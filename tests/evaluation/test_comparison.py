"""Unit tests for :mod:`repro.evaluation.comparison` (ADA vs STA harness)."""

import random

import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.evaluation.comparison import AlgorithmComparator, SeriesErrorStats, STAPass
from repro.exceptions import ConfigurationError
from repro.hierarchy.tree import HierarchyTree


@pytest.fixture
def tree():
    return HierarchyTree(
        [("a", "a1"), ("a", "a2"), ("b", "b1"), ("b", "b2")]
    )


@pytest.fixture
def config():
    return TiresiasConfig(
        theta=5.0,
        ratio_threshold=2.0,
        difference_threshold=4.0,
        window_units=24,
        track_root=False,
        reference_levels=1,
        forecast=ForecastConfig(season_lengths=(4,), fallback_alpha=0.5),
    )


def random_units(count, seed=0):
    rng = random.Random(seed)
    leaves = [("a", "a1"), ("a", "a2"), ("b", "b1"), ("b", "b2")]
    units = []
    for _ in range(count):
        units.append({leaf: rng.randint(0, 9) for leaf in leaves})
    return units


class TestSeriesErrorStats:
    def test_record_and_means(self):
        stats = SeriesErrorStats()
        stats.record(age=0, depth=1, error=2.0, scale=10.0)
        stats.record(age=0, depth=1, error=4.0, scale=10.0)
        stats.record(age=1, depth=2, error=1.0, scale=10.0)
        assert stats.mean_by_age()[0] == pytest.approx(0.3)
        assert stats.mean_by_depth()[2] == pytest.approx(0.1)
        assert stats.overall_mean() == pytest.approx((0.2 + 0.4 + 0.1) / 3)

    def test_empty_stats(self):
        stats = SeriesErrorStats()
        assert stats.mean_by_age() == {}
        assert stats.overall_mean() == 0.0


class TestAlgorithmComparator:
    def test_heavy_hitter_agreement_is_perfect(self, tree, config):
        comparator = AlgorithmComparator(tree, config)
        comparator.process_many(random_units(30, seed=3))
        report = comparator.report()
        assert report.timeunits == 30
        assert report.heavy_hitter_mismatches == 0
        assert report.heavy_hitter_agreement == 1.0

    def test_detection_accuracy_high_on_stable_then_spiking_trace(self, tree, config):
        comparator = AlgorithmComparator(tree, config, warmup_units=4)
        units = [{("a", "a1"): 6, ("b", "b1"): 6} for _ in range(20)]
        units.append({("a", "a1"): 60, ("b", "b1"): 6})
        comparator.process_many(units)
        report = comparator.report()
        assert report.detection.accuracy >= 0.9
        # The spike is caught by both algorithms.
        assert report.detection.true_positives >= 1

    def test_series_errors_are_small(self, tree, config):
        comparator = AlgorithmComparator(tree, config)
        comparator.process_many(random_units(40, seed=7))
        report = comparator.report()
        assert report.series_errors.overall_mean() < 0.5

    def test_an_empty_run_agrees_and_has_no_speedup(self, tree, config):
        report = AlgorithmComparator(tree, config).report()
        assert report.timeunits == 0
        assert report.heavy_hitter_agreement == 1.0
        assert report.speedup == float("inf")

    def test_memory_and_speed_fields_populated(self, tree, config):
        comparator = AlgorithmComparator(tree, config)
        comparator.process_many(random_units(20, seed=1))
        report = comparator.report()
        assert report.ada_memory_units > 0
        assert report.sta_memory_units > 0
        assert report.speedup > 0
        assert set(report.ada_stage_seconds) == set(report.sta_stage_seconds)

    def test_warmup_excludes_early_detections(self, tree, config):
        comparator = AlgorithmComparator(tree, config, warmup_units=100)
        units = [{("a", "a1"): 6} for _ in range(10)] + [{("a", "a1"): 80}]
        comparator.process_many(units)
        report = comparator.report()
        assert report.detection.total == 0


class TestSharedSTAPass:
    """Comparators that read one recorded STA pass report exactly what
    comparators running their own STA report."""

    @pytest.mark.parametrize(
        "changes",
        [{}, {"split_rule": "uniform", "reference_levels": 0}, {"split_rule": "ewma", "split_ewma_alpha": 0.8}],
    )
    def test_reports_equal_a_live_sta(self, tree, config, changes):
        units = random_units(40, seed=11)
        shared = STAPass.run(tree, config, units, samples=6)
        ada_config = config.replace(**changes)
        live = AlgorithmComparator(tree, ada_config, series_error_samples=6, warmup_units=5)
        replayed = AlgorithmComparator(
            tree, ada_config, series_error_samples=6, warmup_units=5, sta_pass=shared
        )
        pairs = zip(live.process_many(units), replayed.process_many(units))
        assert all(a == b for a, b in pairs)
        want, got = live.report(), replayed.report()
        assert got.detection == want.detection
        assert got.series_errors == want.series_errors
        assert got.heavy_hitter_mismatches == want.heavy_hitter_mismatches
        assert got.sta_memory_units == want.sta_memory_units

    def test_a_pass_on_another_config_is_refused(self, tree, config):
        shared = STAPass.run(tree, config, random_units(3), samples=8)
        with pytest.raises(ConfigurationError):
            AlgorithmComparator(tree, config.replace(theta=6.0), sta_pass=shared)
        with pytest.raises(ConfigurationError):
            AlgorithmComparator(tree, config, series_error_samples=4, sta_pass=shared)
