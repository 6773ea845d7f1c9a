#!/usr/bin/env python3
"""Scale one detection session across worker processes — bit-identically.

The detection pipeline is embarrassingly parallel across disjoint depth-1
subtrees of a hierarchy, and :class:`~repro.engine.sharded.
ShardedDetectionEngine` exploits that with full determinism: whatever the
worker count, the detections, timeunit results and checkpoints are
byte-identical to the serial engine.  This example:

1. generates a CCD trouble-dimension trace and runs it through the serial
   :class:`~repro.engine.engine.DetectionEngine` as the reference;
2. runs the identical workload through a sharded engine at two and four
   workers (the trouble hierarchy's nine depth-1 subtrees are balanced
   across them) and verifies the outputs are bit-for-bit equal;
3. checkpoints the sharded engine mid-stream, restores the checkpoint into a
   *serial* engine — the formats are interchangeable — and finishes the
   stream there, again with identical detections.

Subtree sharding requires excluding the hierarchy root from heavy hitter
tracking (``track_root=False, allow_root_heavy=False``): the root is the one
node whose state would span every shard.  The serial engine honours the same
configuration, which is what makes the comparison exact.

Run with::

    python examples/sharded_engine.py
"""

from __future__ import annotations

import time

from repro import (
    CCDConfig,
    DetectionEngine,
    ForecastConfig,
    ShardedDetectionEngine,
    TiresiasConfig,
    make_ccd_dataset,
)
from repro.streaming.batch import iter_record_batches

DELTA = 900.0
UNITS_PER_DAY = int(86400 / DELTA)


def main() -> None:
    dataset = make_ccd_dataset(
        CCDConfig(
            dimension="trouble",
            duration_days=4.0,
            delta_seconds=DELTA,
            base_rate_per_hour=400.0,
            num_anomalies=5,
            anomaly_warmup_days=1.5,
            seed=2024,
        )
    )
    config = TiresiasConfig(
        theta=6.0,
        ratio_threshold=2.8,
        difference_threshold=8.0,
        delta_seconds=DELTA,
        window_units=3 * UNITS_PER_DAY,
        reference_levels=2,
        track_root=False,
        allow_root_heavy=False,
        forecast=ForecastConfig(season_lengths=(UNITS_PER_DAY,), fallback_alpha=0.3),
    )
    records = dataset.record_list()
    print(f"workload: {len(records)} records, {dataset.num_timeunits} timeunits, "
          f"{len(dataset.tree.children(()))} depth-1 subtrees")

    # 1. Serial reference -------------------------------------------------
    serial = DetectionEngine()
    serial.add_session("ccd", dataset.tree, config, clock=dataset.clock)
    start = time.perf_counter()
    serial_results = serial.process_batches(iter_record_batches(records, 8192))["ccd"]
    serial_seconds = time.perf_counter() - start
    serial_anomalies = [a.to_dict() for a in serial.anomalies()["ccd"]]
    print(f"serial: {len(serial_anomalies)} anomalies in {serial_seconds:.2f}s")

    # 2. Sharded runs must match bit-for-bit ------------------------------
    for workers in (2, 4):
        with ShardedDetectionEngine(num_workers=workers) as engine:
            engine.add_session(
                "ccd", dataset.tree, config, clock=dataset.clock,
                subtree_shards=workers,
            )
            engine.units_processed()  # spawn workers before timing
            start = time.perf_counter()
            results = engine.process_batches(
                iter_record_batches(records, 8192)
            )["ccd"]
            seconds = time.perf_counter() - start
            anomalies = [a.to_dict() for a in engine.anomalies()["ccd"]]
        assert results == serial_results, "sharded results diverged!"
        assert anomalies == serial_anomalies, "sharded anomalies diverged!"
        print(f"sharded x{workers}: identical detections in {seconds:.2f}s "
              f"({serial_seconds / seconds:.2f}x vs serial on this machine)")

    # 3. Checkpoints are interchangeable with the serial engine -----------
    batches = list(iter_record_batches(records, 8192))
    half = len(batches) // 2
    produced = []
    with ShardedDetectionEngine(num_workers=2) as engine:
        engine.add_session(
            "ccd", dataset.tree, config, clock=dataset.clock, subtree_shards=2
        )
        for batch in batches[:half]:
            produced.extend(engine.ingest_record_batch(batch)["ccd"])
        state = engine.state_dict()  # serial checkpoint format

    resumed = DetectionEngine.from_state_dict(state)
    for batch in batches[half:]:
        produced.extend(resumed.ingest_record_batch(batch)["ccd"])
    produced.extend(resumed.flush()["ccd"])
    assert produced == serial_results, "resume across engines diverged!"
    print("sharded -> checkpoint -> serial resume: identical detections")


if __name__ == "__main__":
    main()
