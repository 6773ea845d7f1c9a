#!/usr/bin/env python3
"""Set-top-box crash monitoring with offline seasonality analysis.

This example follows the paper's SCD scenario end to end, including the parts
of the pipeline that the quickstart skips:

1. generate a history trace and run the offline seasonality analysis (Step 3
   of the system overview: FFT + a-trous wavelet) to choose the seasonal
   periods and their combination weight;
2. configure the forecasting model from that analysis
   (:func:`repro.derive_seasonal_config`);
3. run the online detector over a fresh monitoring window — interrupting it
   halfway through with a checkpoint/restore cycle, the way an always-on
   monitoring process survives a restart — then persist the anomaly reports
   and query them the way an operations engineer would (by subtree, by time
   range, by magnitude).

Run with::

    python examples/stb_crash_monitoring.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import DetectionSession, SCDConfig, TiresiasConfig, make_scd_dataset
from repro.core.reporting import AnomalyQuery
from repro.core.pipeline import derive_seasonal_config
from repro.evaluation.metrics import detection_rate
from repro.seasonality import SeasonalityAnalyzer


def aggregate_series(dataset) -> list[float]:
    """Per-timeunit total crash counts (the root aggregate)."""
    series = [0.0] * dataset.num_timeunits
    for record in dataset.records():
        unit = dataset.clock.timeunit_of(record.timestamp)
        if 0 <= unit < len(series):
            series[unit] += 1.0
    return series


def main() -> None:
    delta = 900.0
    units_per_day = int(86400 / delta)

    # ------------------------------------------------------------------
    # 1. Offline seasonality analysis on a clean history trace.
    # ------------------------------------------------------------------
    history = make_scd_dataset(
        SCDConfig(duration_days=14.0, delta_seconds=delta, base_rate_per_hour=400.0,
                  network_scale=0.05, num_anomalies=0, seed=3)
    )
    history_series = aggregate_series(history)
    analyzer = SeasonalityAnalyzer(timeunit_seconds=delta, max_seasons=2)
    profile = analyzer.analyze(history_series)
    print("offline seasonality analysis (FFT + wavelet):")
    for period, weight in zip(profile.periods_timeunits, profile.weights):
        print(f"  period = {period:>4} timeunits ({period * delta / 3600:5.1f} h), "
              f"weight = {weight:.2f}")

    # ------------------------------------------------------------------
    # 2. Detector configuration derived from the analysis.
    # ------------------------------------------------------------------
    base_config = TiresiasConfig(
        theta=12.0,
        delta_seconds=delta,
        window_units=3 * units_per_day,
        reference_levels=1,
        split_rule="long-term-history",
    )
    config = derive_seasonal_config(history_series, base_config, max_seasons=2)
    print(f"\nforecasting seasons: {config.forecast.season_lengths} "
          f"weights: {config.forecast.season_weights}")

    # ------------------------------------------------------------------
    # 3. Online monitoring of a fresh trace with injected crash storms.
    # ------------------------------------------------------------------
    monitoring = make_scd_dataset(
        SCDConfig(duration_days=5.0, delta_seconds=delta, base_rate_per_hour=400.0,
                  network_scale=0.05, num_anomalies=3, anomaly_warmup_days=2.0, seed=21)
    )
    detector = DetectionSession(
        monitoring.tree, config, algorithm="ada", clock=monitoring.clock,
        warmup_units=units_per_day,
    )

    # Simulate a process restart mid-stream: ingest half, checkpoint, restore
    # into a fresh detector, and continue.  Detections are identical to an
    # uninterrupted run (the sliding-window and forecaster state round-trip).
    records = monitoring.record_list()
    half = len(records) // 2
    detector.ingest_batch(records[:half])
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint_path = Path(tmp) / "scd_detector.ckpt.json"
        detector.save_checkpoint(checkpoint_path)
        print(f"\ncheckpoint at record {half}/{len(records)} "
              f"({checkpoint_path.stat().st_size} bytes); restoring...")
        detector = DetectionSession.load_checkpoint(checkpoint_path)
    detector.ingest_batch(records[half:])
    detector.flush()

    print(f"processed {detector.units_processed} timeunits; "
          f"{len(detector.anomalies)} anomalies reported")
    rate = detection_rate(detector.anomalies, monitoring.ground_truth(), tolerance_units=2)
    print(f"injected crash storms detected: {rate:.0%}")

    # Persist and query the report database (Step 5/6 + the front end's role).
    with tempfile.TemporaryDirectory() as tmp:
        report_path = Path(tmp) / "scd_anomalies.jsonl"
        detector.reports.save_jsonl(report_path)
        print(f"\nreports persisted to {report_path.name} "
              f"({report_path.stat().st_size} bytes)")

    print("\nlargest anomalies (excess >= 20 crashes above forecast):")
    for anomaly in detector.reports.query(AnomalyQuery(min_excess=20.0)):
        location = " / ".join(anomaly.node_path) or "<national>"
        print(f"  unit {anomaly.timeunit:>4}  {location:<40} "
              f"actual={anomaly.actual:6.1f} forecast={anomaly.forecast:6.1f}")

    if detector.anomalies:
        first = detector.anomalies[0]
        subtree = first.node_path[:1]
        in_subtree = detector.reports.query(AnomalyQuery(subtree=subtree))
        print(f"\nanomalies under {' / '.join(subtree)}: {len(in_subtree)}")


if __name__ == "__main__":
    main()
