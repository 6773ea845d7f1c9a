#!/usr/bin/env python3
"""Customer-care monitoring: Tiresias vs the first-level control chart.

This example mirrors the paper's operational scenario (§VII-B): an ISP
monitors customer-care call volumes over the network-path hierarchy
(SHO → VHO → IO → CO → DSLAM).  The current practice applies control charts
to the VHO-level aggregates only; Tiresias tracks succinct hierarchical heavy
hitters and can therefore localize incidents deeper in the hierarchy.

The example

1. generates a CCD-like trace over the network hierarchy with injected
   incidents at various depths,
2. runs both detectors online over the same per-timeunit counts,
3. prints the Table-VI-style comparison (Type 1/2/3) and shows, for a few
   incidents, at which level each method localized the problem.

Run with::

    python examples/customer_care_monitoring.py
"""

from __future__ import annotations

from repro import (
    CallbackObserver,
    CCDConfig,
    DetectionSession,
    ForecastConfig,
    TiresiasConfig,
    make_ccd_dataset,
)
from repro.baselines import ControlChartDetector
from repro.datagen.generator import counts_per_timeunit
from repro.evaluation.metrics import compare_with_reference, detection_rate


def main() -> None:
    dataset = make_ccd_dataset(
        CCDConfig(
            dimension="network",
            duration_days=5.0,
            base_rate_per_hour=360.0,
            network_scale=0.5,
            num_anomalies=6,
            anomaly_warmup_days=2.0,
            seed=11,
        )
    )
    units_per_day = int(86400 / dataset.config.delta_seconds)
    units = counts_per_timeunit(
        dataset.record_list(), dataset.clock, dataset.num_timeunits
    )
    print(f"network hierarchy: {dataset.tree.num_nodes} nodes "
          f"({len(dataset.tree.nodes_at_depth(1))} VHOs)")
    print(f"trace: {len(units)} timeunits, "
          f"{sum(sum(u.values()) for u in units)} performance-related calls")

    # Tiresias (ADA) over the full hierarchy.
    config = TiresiasConfig(
        theta=12.0,
        delta_seconds=dataset.config.delta_seconds,
        window_units=3 * units_per_day,
        reference_levels=2,
        forecast=ForecastConfig(season_lengths=(units_per_day,)),
    )
    tiresias = DetectionSession(
        dataset.tree, config, algorithm="ada", clock=dataset.clock,
        warmup_units=units_per_day,
    )

    # Current practice: a seasonal control chart on the VHO aggregates only.
    reference = ControlChartDetector(
        dataset.tree,
        depth=1,
        k_sigma=4.0,
        smoothing=0.3,
        min_observations=units_per_day,
        min_excess=15.0,
        seasonal_period=units_per_day,
    )

    # The heavy hitter log feeds the Table-VI comparison; a lifecycle hook
    # collects it as timeunits close instead of threading it through the loop.
    tracked = []
    tiresias.subscribe(CallbackObserver(
        on_timeunit_closed=lambda session, result: tracked.extend(
            (path, result.timeunit) for path in result.heavy_hitters),
    ))
    for unit, counts in enumerate(units):
        tiresias.process_timeunit_counts(counts, unit)
        reference.process_timeunit(counts, unit)

    comparison = compare_with_reference(
        tiresias.anomalies, reference.anomalies, tracked, time_tolerance=4
    )
    print("\n--- Table VI style comparison -------------------------------")
    print(f"Type 1 (accuracy): {comparison.type1_accuracy:6.1%}")
    print(f"Type 2 (coverage of reference alarms): {comparison.type2:6.1%}")
    print(f"Type 3 (agreement on quiet cases): {comparison.type3:6.1%}")
    print(f"reference alarms: {len(reference.anomalies)}  "
          f"tiresias anomalies: {len(tiresias.anomalies)}  "
          f"new (below-VHO or unseen) anomalies: {comparison.new_anomalies}")

    print("\n--- localization of injected incidents ----------------------")
    rate = detection_rate(tiresias.anomalies, dataset.ground_truth(), tolerance_units=2)
    print(f"injected incidents detected by Tiresias: {rate:.0%}")
    for injected in dataset.anomalies:
        unit_range = injected.timeunits(dataset.clock)
        ours = [
            a for a in tiresias.anomalies
            if unit_range.start - 2 <= a.timeunit <= unit_range.stop + 2
        ]
        deepest = max((len(a.node_path) for a in ours), default=0)
        ref_hits = [
            a for a in reference.anomalies
            if unit_range.start - 2 <= a.timeunit <= unit_range.stop + 2
        ]
        location = " / ".join(injected.node_path)
        print(
            f"  incident at depth {len(injected.node_path)} ({location[:48]:<48}) -> "
            f"tiresias localized at depth {deepest}, "
            f"reference {'alarmed (VHO level)' if ref_hits else 'silent'}"
        )

    print("\n--- depth distribution of Tiresias anomalies ----------------")
    for depth, share in tiresias.reports.depth_distribution().items():
        print(f"  depth {depth}: {share:5.1%}")


if __name__ == "__main__":
    main()
