"""Integration tests: the full Tiresias pipeline on generated CCD/SCD traces.

These exercise the public API exactly as the examples and benchmarks do:
generate a synthetic dataset with injected ground-truth anomalies, run the
online detector over the record stream, and check that the injected events
are found, that ADA and STA agree, and that the reference-method comparison
machinery produces sensible Table-VI-style numbers.
"""

import pytest

from repro import (
    CCDConfig,
    SCDConfig,
    DetectionSession,
    TiresiasConfig,
    ForecastConfig,
    make_ccd_dataset,
    make_scd_dataset,
)
from repro.baselines.control_chart import ControlChartDetector
from repro.datagen.generator import counts_per_timeunit
from repro.evaluation.metrics import compare_with_reference, detection_rate


def detector_config(dataset, theta=10.0):
    units_per_day = int(86400 / dataset.config.delta_seconds)
    return TiresiasConfig(
        theta=theta,
        ratio_threshold=2.5,
        difference_threshold=8.0,
        delta_seconds=dataset.config.delta_seconds,
        window_units=4 * units_per_day,
        reference_levels=1,
        forecast=ForecastConfig(season_lengths=(units_per_day,), fallback_alpha=0.3),
    )


@pytest.fixture(scope="module")
def ccd_dataset():
    return make_ccd_dataset(
        CCDConfig(
            dimension="trouble",
            duration_days=6.0,
            base_rate_per_hour=240.0,
            num_anomalies=3,
            anomaly_warmup_days=2.0,
            seed=101,
        )
    )


@pytest.fixture(scope="module")
def ccd_run(ccd_dataset):
    config = detector_config(ccd_dataset)
    detector = DetectionSession(
        ccd_dataset.tree,
        config,
        algorithm="ada",
        clock=ccd_dataset.clock,
        warmup_units=int(1.5 * 96),
    )
    detector.process_stream(ccd_dataset.records())
    return detector


class TestCCDEndToEnd:
    def test_processes_every_timeunit(self, ccd_dataset, ccd_run):
        assert ccd_run.units_processed == ccd_dataset.num_timeunits

    def test_injected_anomalies_detected(self, ccd_dataset, ccd_run):
        rate = detection_rate(
            ccd_run.anomalies, ccd_dataset.ground_truth(), tolerance_units=2
        )
        assert rate >= 0.6

    def test_anomaly_rate_is_bounded(self, ccd_dataset, ccd_run):
        """The detector must not fire constantly on normal seasonal traffic."""
        anomalous_units = {a.timeunit for a in ccd_run.anomalies}
        assert len(anomalous_units) <= 0.2 * ccd_dataset.num_timeunits

    def test_heavy_hitters_tracked_every_unit(self, ccd_run):
        assert all(r.num_heavy_hitters >= 1 for r in ccd_run.results)

    def test_report_store_queryable(self, ccd_run):
        deduped = ccd_run.reports.deduplicate_ancestors()
        assert len(deduped) <= len(ccd_run.reports)


class TestADAvsSTAOnCCD:
    def test_heavy_hitter_sets_agree(self, ccd_dataset):
        config = detector_config(ccd_dataset)
        units = counts_per_timeunit(
            ccd_dataset.record_list(), ccd_dataset.clock, ccd_dataset.num_timeunits
        )
        # Use a shorter slice to keep STA affordable in the test suite.
        ada, sta = (
            DetectionSession(ccd_dataset.tree, config, algorithm=name, clock=ccd_dataset.clock)
            for name in ("ada", "sta")
        )
        for unit, counts in enumerate(units[:192]):
            a = ada.process_timeunit_counts(counts, unit)
            s = sta.process_timeunit_counts(counts, unit)
            assert a.heavy_hitters == s.heavy_hitters


class TestReferenceComparisonOnCCD:
    def test_table6_style_metrics(self, ccd_dataset, ccd_run):
        reference = ControlChartDetector(ccd_dataset.tree, depth=1, min_observations=96)
        units = counts_per_timeunit(
            ccd_dataset.record_list(), ccd_dataset.clock, ccd_dataset.num_timeunits
        )
        for unit, counts in enumerate(units):
            reference.process_timeunit(counts, unit)
        tracked = [
            (path, result.timeunit)
            for result in ccd_run.results
            for path in result.heavy_hitters
        ]
        comparison = compare_with_reference(
            ccd_run.anomalies, reference.anomalies, tracked
        )
        assert 0.0 <= comparison.type1_accuracy <= 1.0
        assert comparison.cases > 0
        # Most tracked heavy-hitter cases are quiet: accuracy should be high.
        assert comparison.type1_accuracy >= 0.8


class TestSCDEndToEnd:
    def test_scd_pipeline_runs_and_detects(self):
        dataset = make_scd_dataset(
            SCDConfig(
                duration_days=5.0,
                base_rate_per_hour=300.0,
                network_scale=0.02,
                num_anomalies=2,
                anomaly_warmup_days=2.0,
                seed=55,
            )
        )
        config = detector_config(dataset, theta=12.0)
        detector = DetectionSession(
            dataset.tree, config, algorithm="ada", clock=dataset.clock, warmup_units=96
        )
        detector.process_stream(dataset.records())
        assert detector.units_processed == dataset.num_timeunits
        rate = detection_rate(detector.anomalies, dataset.ground_truth(), tolerance_units=2)
        assert rate >= 0.5
