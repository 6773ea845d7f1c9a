"""Table VI: comparison of Tiresias (ADA) against the reference method.

The paper compares Tiresias's CCD anomalies with a reference set produced by
the ISP operations team's control charts over first-level (VHO) aggregates:
Type 1 accuracy 94.1 %, Type 2 (true alarms over reference anomalies) 90.9 %,
Type 3 (true negatives over non-reference cases) 94.1 %.  It also reports
that ~95 % of the *new* anomalies Tiresias finds are localized below the
first level.  The benchmark runs both detectors on the same synthetic CCD
network-path trace and reproduces the three ratios and the depth breakdown.
"""

from __future__ import annotations

import pytest

from repro.baselines.control_chart import ControlChartDetector
from repro.core.reporting import AnomalyReportStore
from repro.datagen.generator import counts_per_timeunit
from repro.engine.session import DetectionSession
from repro.evaluation.metrics import compare_with_reference, detection_rate

from conftest import detector_config, units_per_day, write_result


def run_comparison(dataset):
    units = counts_per_timeunit(dataset.record_list(), dataset.clock, dataset.num_timeunits)
    upd = units_per_day(dataset.config.delta_seconds)
    config = detector_config(
        dataset.config.delta_seconds, theta=12.0, window_days=3.0, reference_levels=2
    )
    tiresias = DetectionSession(
        dataset.tree, config, algorithm="ada", clock=dataset.clock, warmup_units=upd
    )
    # The operations team's chart uses a time-of-day baseline; without it the
    # chart would alarm on every diurnal ramp-up rather than on real events.
    reference = ControlChartDetector(
        dataset.tree,
        depth=1,
        k_sigma=4.0,
        smoothing=0.3,
        min_observations=upd,
        min_excess=15.0,
        seasonal_period=upd,
    )
    tracked = []
    for unit, counts in enumerate(units):
        result = tiresias.process_timeunit_counts(counts, unit)
        reference.process_timeunit(counts, unit)
        tracked.extend((path, unit) for path in result.heavy_hitters)
    # A sustained event is flagged by the two methods in slightly different
    # timeunits (Holt-Winters adapts within the event, the per-phase chart
    # does not); a small tolerance matches them as the same alarm.
    comparison = compare_with_reference(
        tiresias.anomalies, reference.anomalies, tracked, time_tolerance=4
    )
    return tiresias, reference, comparison


@pytest.mark.benchmark(group="table6")
def test_table6_comparison_with_reference_method(benchmark, ccd_network_dataset):
    dataset = ccd_network_dataset
    tiresias, reference, comparison = benchmark.pedantic(
        run_comparison, args=(dataset,), rounds=1, iterations=1
    )

    store = AnomalyReportStore()
    store.add_many(tiresias.anomalies)
    depth_distribution = store.depth_distribution()
    below_first_level = sum(
        share for depth, share in depth_distribution.items() if depth > 1
    )
    truth_rate = detection_rate(
        tiresias.anomalies, dataset.ground_truth(), tolerance_units=2
    )

    lines = [
        f"Table VI - ADA vs the first-level control-chart reference "
        f"({dataset.num_timeunits} timeunits, {dataset.tree.num_nodes} nodes)",
        "",
        f"{'metric':<40}{'paper':>10}{'reproduced':>12}",
        f"{'Type 1 (accuracy)':<40}{'94.1%':>10}{comparison.type1_accuracy:>11.1%}",
        f"{'Type 2 (TA / (TA+MA))':<40}{'90.9%':>10}{comparison.type2:>11.1%}",
        f"{'Type 3 (TN / (TN+NA))':<40}{'94.1%':>10}{comparison.type3:>11.1%}",
        "",
        f"true alarms={comparison.true_alarms}  missed={comparison.missed_anomalies}  "
        f"new={comparison.new_anomalies}  true negatives={comparison.true_negatives}",
        f"reference alarms={len(reference.anomalies)}  tiresias anomalies={len(tiresias.anomalies)}",
        f"injected ground-truth events detected by Tiresias: {truth_rate:.0%}",
        "",
        "depth distribution of Tiresias anomalies (after ancestor dedup):",
    ] + [
        f"  depth {depth}: {share:.1%}" for depth, share in depth_distribution.items()
    ] + [
        f"fraction of anomalies localized below the first level: {below_first_level:.0%} "
        "(paper: ~95% of new anomalies)",
    ]
    write_result("table6_reference_comparison", "\n".join(lines))

    # Shape checks: Tiresias finds most of what the reference method finds...
    assert comparison.type2 >= 0.6
    # ...rarely alarms where nothing is going on...
    assert comparison.type1_accuracy >= 0.85
    assert comparison.type3 >= 0.85
    # ...catches the injected ground truth, and localizes below level 1,
    # which the reference method structurally cannot do.
    assert truth_rate >= 0.5
    assert below_first_level > 0.0
    assert all(len(a.node_path) == 1 for a in reference.anomalies)
