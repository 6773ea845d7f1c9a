"""Resume-equivalence coverage: every checkpoint boundary of a golden trace.

A monitoring process may die and restore at any batch boundary — including
mid-timeunit, since batches are record-counted and do not align with timeunit
edges.  For every boundary of the CCD-trouble golden trace this suite:

* checkpoints a serial engine after the prefix,
* restores it (serial *and* sharded at two workers / two subtree shards),
* replays the remaining batches,

and asserts the remaining detections equal the uninterrupted run exactly.
The sharded direction also checkpoints mid-run and restores serially, closing
the loop: serial -> sharded -> serial crossing a live stream.

``REPRO_SHARD_TRANSPORT`` (``pipe``/``shm``/``tcp``, default ``pipe``)
steers every sharded engine this module builds; the CI
``sharded-transports`` job runs it once per transport.
"""

from __future__ import annotations

import os

import pytest

from repro.engine.engine import DetectionEngine
from repro.engine.sharded import ShardedDetectionEngine
from repro.streaming.batch import iter_record_batches

BATCH_SIZE = 512  # deliberately misaligned with the 900 s timeunits

#: Transport every sharded engine in this module runs on (CI matrixes it).
DEFAULT_TRANSPORT = os.environ.get("REPRO_SHARD_TRANSPORT", "pipe")


@pytest.fixture(scope="module")
def trouble_trace(golden_specs_by_name, golden_trace_loader):
    spec = golden_specs_by_name["ccd_trouble"]
    tree, clock, records = golden_trace_loader(spec)
    batches = list(iter_record_batches(records, BATCH_SIZE))
    return spec, tree, clock, batches


def _fresh_engine(spec, tree, clock) -> DetectionEngine:
    engine = DetectionEngine()
    engine.add_session(
        spec.name, tree, spec.detector_config(), algorithm=spec.algorithm, clock=clock
    )
    return engine


@pytest.fixture(scope="module")
def straight_through(trouble_trace):
    spec, tree, clock, batches = trouble_trace
    engine = _fresh_engine(spec, tree, clock)
    results = engine.process_batches(batches)[spec.name]
    anomalies = [a.to_dict() for a in engine.anomalies()[spec.name]]
    return results, anomalies


def _prefix_states(spec, tree, clock, batches):
    """Serial engine state after each batch boundary, with results so far."""
    engine = _fresh_engine(spec, tree, clock)
    states = []
    produced: list = []
    for batch in batches[:-1]:  # resuming after the last batch only flushes
        produced.extend(engine.ingest_record_batch(batch)[spec.name])
        states.append((engine.state_dict(), list(produced)))
    return states


def test_serial_resume_from_every_boundary(trouble_trace, straight_through):
    spec, tree, clock, batches = trouble_trace
    reference, _ = straight_through
    states = _prefix_states(spec, tree, clock, batches)
    assert len(states) >= 4, "the golden trace must span several batches"
    for boundary, (state, produced) in enumerate(states):
        resumed = DetectionEngine.from_state_dict(state)
        rest = list(produced)
        for batch in batches[boundary + 1 :]:
            rest.extend(resumed.ingest_record_batch(batch)[spec.name])
        rest.extend(resumed.flush()[spec.name])
        assert rest == reference, f"serial resume diverged at boundary {boundary}"


def test_sharded_resume_from_every_boundary(trouble_trace, straight_through):
    spec, tree, clock, batches = trouble_trace
    reference, reference_anomalies = straight_through
    states = _prefix_states(spec, tree, clock, batches)
    for boundary, (state, produced) in enumerate(states):
        with ShardedDetectionEngine.from_state_dict(
            state, num_workers=2, subtree_shards=2, transport=DEFAULT_TRANSPORT
        ) as resumed:
            rest = list(produced)
            for batch in batches[boundary + 1 :]:
                rest.extend(resumed.ingest_record_batch(batch)[spec.name])
            rest.extend(resumed.flush()[spec.name])
            anomalies = [a.to_dict() for a in resumed.anomalies()[spec.name]]
        assert rest == reference, f"sharded resume diverged at boundary {boundary}"
        assert anomalies == reference_anomalies


def test_round_trip_through_sharded_checkpoint(trouble_trace, straight_through):
    """serial prefix -> sharded middle -> serial suffix == straight through."""
    spec, tree, clock, batches = trouble_trace
    reference, _ = straight_through
    third = max(1, len(batches) // 3)

    serial_head = _fresh_engine(spec, tree, clock)
    produced: list = []
    for batch in batches[:third]:
        produced.extend(serial_head.ingest_record_batch(batch)[spec.name])

    with ShardedDetectionEngine.from_state_dict(
        serial_head.state_dict(),
        num_workers=2,
        subtree_shards=2,
        transport=DEFAULT_TRANSPORT,
    ) as middle:
        for batch in batches[third : 2 * third]:
            produced.extend(middle.ingest_record_batch(batch)[spec.name])
        mid_state = middle.state_dict()

    tail = DetectionEngine.from_state_dict(mid_state)
    for batch in batches[2 * third :]:
        produced.extend(tail.ingest_record_batch(batch)[spec.name])
    produced.extend(tail.flush()[spec.name])
    assert produced == reference
