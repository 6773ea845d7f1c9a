#!/usr/bin/env python3
"""Columnar ingestion: decode a trace straight into columns.

A detection engine ingests one way, as :class:`RecordBatch` columns:
timeunit classification is one vectorized pass and per-leaf counting one
grouped aggregation per batch.  What differs is how the trace gets there:

* **record objects** — the reader builds one :class:`OperationalRecord` per
  line (``read_records_jsonl``) and ``process_stream`` packs them back into
  batch columns, 8 192 at a time;
* **decoded columns** — the reader appends each line's values straight to
  the batch columns (``read_batches_jsonl``) and ``process_batches`` takes
  them as they are, with no record object in between.

This example:

1. generates a CCD trace and persists it as JSONL (the operational export);
2. replays it twice — record objects via ``process_stream`` and decoded
   columns via ``read_batches_jsonl`` + ``process_batches``;
3. verifies the two runs report byte-identical anomalies, and compares what
   the record objects cost in wall-clock throughput.

Run with::

    python examples/columnar_ingestion.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import (
    CCDConfig,
    DetectionEngine,
    ForecastConfig,
    TiresiasConfig,
    make_ccd_dataset,
    read_batches_jsonl,
)
from repro.io import read_records_jsonl, write_records_jsonl

DELTA = 1800.0
UNITS_PER_DAY = int(86400 / DELTA)


def build_engine(dataset) -> DetectionEngine:
    config = TiresiasConfig(
        theta=8.0,
        ratio_threshold=2.2,
        difference_threshold=6.0,
        delta_seconds=DELTA,
        window_units=2 * UNITS_PER_DAY,
        reference_levels=1,
        forecast=ForecastConfig(season_lengths=(UNITS_PER_DAY,), fallback_alpha=0.4),
    )
    engine = DetectionEngine()
    engine.add_session(
        "ccd", dataset.tree, config, clock=dataset.clock,
        warmup_units=UNITS_PER_DAY // 2,
    )
    return engine


def main() -> None:
    dataset = make_ccd_dataset(
        CCDConfig(
            dimension="trouble",
            duration_days=4.0,
            delta_seconds=DELTA,
            base_rate_per_hour=400.0,
            num_anomalies=4,
            anomaly_warmup_days=1.5,
            seed=7,
        )
    )

    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "ccd.jsonl"
        n = write_records_jsonl(dataset.records(), trace)
        print(f"trace: {n} records over {dataset.num_timeunits} timeunits -> {trace.name}")

        # --- record objects ---------------------------------------------------
        record_engine = build_engine(dataset)
        start = time.perf_counter()
        record_engine.process_stream(read_records_jsonl(trace))
        record_seconds = time.perf_counter() - start

        # --- decoded columns --------------------------------------------------
        batch_engine = build_engine(dataset)
        start = time.perf_counter()
        batch_engine.process_batches(read_batches_jsonl(trace, batch_size=8192))
        batch_seconds = time.perf_counter() - start

    record_anomalies = [a.to_dict() for a in record_engine.session("ccd").anomalies]
    batch_anomalies = [a.to_dict() for a in batch_engine.session("ccd").anomalies]
    assert record_anomalies == batch_anomalies, "the two replays disagree!"

    print(f"\nrecord objects:  {n / record_seconds:>12,.0f} records/sec "
          f"({record_seconds:.3f}s)")
    print(f"decoded columns: {n / batch_seconds:>12,.0f} records/sec "
          f"({batch_seconds:.3f}s)  -> {record_seconds / batch_seconds:.1f}x")
    print(f"\nboth replays reported {len(record_anomalies)} identical anomalies; "
          "a few of them:")
    for anomaly in record_engine.session("ccd").anomalies[:5]:
        print(f"  t={anomaly.timeunit:>4}  {'/'.join(anomaly.node_path):<40} "
              f"ratio={anomaly.ratio:.2f}")


if __name__ == "__main__":
    main()
