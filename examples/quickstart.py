#!/usr/bin/env python3
"""Quickstart: detect anomalies in a synthetic customer-care call stream.

This is the smallest end-to-end use of the library:

1. generate a synthetic CCD-like dataset (trouble-description hierarchy,
   diurnal/weekly seasonality, a few injected incidents with ground truth);
2. run the online Tiresias detector (ADA algorithm) over the record stream,
   observing anomalies *as they are detected* through a lifecycle hook
   instead of polling the report store afterwards;
3. print the detected anomalies and check them against the injected events.

Run with::

    python examples/quickstart.py
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
from repro.evaluation.metrics import detection_rate


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A synthetic operational dataset (substitute for the paper's CCD).
    # ------------------------------------------------------------------
    dataset = make_ccd_dataset(
        CCDConfig(
            dimension="trouble",
            duration_days=6.0,
            base_rate_per_hour=240.0,
            num_anomalies=3,
            anomaly_warmup_days=2.0,
            seed=7,
        )
    )
    units_per_day = int(86400 / dataset.config.delta_seconds)
    print(f"hierarchy: {dataset.tree.num_nodes} nodes, {dataset.tree.num_leaves} leaves")
    print(f"trace:     {dataset.num_timeunits} timeunits of {dataset.config.delta_seconds:.0f}s")
    print(f"injected ground-truth events: {len(dataset.anomalies)}")

    # ------------------------------------------------------------------
    # 2. The online detector.
    # ------------------------------------------------------------------
    config = TiresiasConfig(
        theta=10.0,                      # heavy hitter threshold
        ratio_threshold=2.8,             # RT (Definition 4)
        difference_threshold=8.0,        # DT (Definition 4)
        delta_seconds=dataset.config.delta_seconds,
        window_units=4 * units_per_day,  # sliding window length (ell)
        reference_levels=2,              # h: reference series for the top 2 levels
        split_rule="long-term-history",
        forecast=ForecastConfig(season_lengths=(units_per_day,)),
    )
    detector = DetectionSession(
        dataset.tree,
        config,
        algorithm="ada",
        clock=dataset.clock,
        warmup_units=units_per_day,      # suppress alarms while models warm up
    )

    # Lifecycle hooks: an alerting backend would push these somewhere; here we
    # just collect the live anomaly feed and note when warm-up finishes.
    live_anomalies = []
    detector.subscribe(CallbackObserver(
        on_anomaly=lambda session, anomaly: live_anomalies.append(anomaly),
        on_warmup_complete=lambda session, unit: print(
            f"[hook] warm-up complete at timeunit {unit}; alarms are live"),
    ))

    detector.process_stream(dataset.records())

    # ------------------------------------------------------------------
    # 3. Results.
    # ------------------------------------------------------------------
    assert live_anomalies == detector.anomalies  # the hook saw every report
    print(f"\nprocessed {detector.units_processed} timeunits; "
          f"{len(live_anomalies)} anomalies reported\n")
    for anomaly in detector.reports.deduplicate_ancestors():
        location = " / ".join(anomaly.node_path) or "<root>"
        print(
            f"  timeunit {anomaly.timeunit:>4}  {location:<55} "
            f"actual={anomaly.actual:7.1f}  forecast={anomaly.forecast:7.1f}  "
            f"ratio={anomaly.ratio:5.1f}"
        )

    rate = detection_rate(detector.anomalies, dataset.ground_truth(), tolerance_units=2)
    print(f"\ninjected events detected: {rate:.0%}")


if __name__ == "__main__":
    main()
