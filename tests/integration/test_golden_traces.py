"""Golden-trace regression suite.

Small canonical CCD-trouble / CCD-network / SCD traces are committed under
``tests/golden/`` together with the exact detection output the engine must
produce on them (``*.expected.json``).  Any change to the classification,
heavy hitter, forecasting or detection arithmetic shows up as a diff here.

Run ``pytest tests/integration/test_golden_traces.py --update-golden`` after
an *intentional* output change to rewrite the expected files; review the diff
before committing.  The specs themselves (generator seeds, detector configs)
live in ``tests/conftest.py`` next to the ``golden_spec`` fixture.
"""

from __future__ import annotations

import json

import pytest

from repro.engine.engine import DetectionEngine
from repro.engine.sharded import ShardedDetectionEngine
from repro.streaming.batch import iter_record_batches
from tests.conftest import python_tier


def detection_digest(results, anomalies) -> dict:
    """The JSON document a golden run is compared by (stable ordering)."""
    return {
        "num_results": len(results),
        "total_heavy_hitters": sum(r.num_heavy_hitters for r in results),
        "total_anomalies": sum(r.num_anomalies for r in results),
        "anomalies": [anomaly.to_dict() for anomaly in anomalies],
    }


def run_serial(spec, loader, path="record"):
    tree, clock, records = loader(spec)
    engine = DetectionEngine()
    engine.add_session(
        spec.name, tree, spec.detector_config(), algorithm=spec.algorithm, clock=clock
    )
    if path == "record":
        results = engine.process_stream(records)[spec.name]
    else:
        results = engine.process_batches(iter_record_batches(records, 512))[spec.name]
    return results, engine.anomalies()[spec.name]


def test_golden_trace_detections(golden_spec, golden_trace_loader, update_golden):
    results, anomalies = run_serial(golden_spec, golden_trace_loader)
    digest = detection_digest(results, anomalies)
    assert digest["total_anomalies"] > 0, (
        "a golden trace without detections would not regress anything useful"
    )
    if update_golden or not golden_spec.expected_path.exists():
        golden_spec.expected_path.write_text(
            json.dumps(digest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        if not update_golden:
            pytest.skip(
                f"expected file for {golden_spec.name} created; rerun to compare"
            )
    expected = json.loads(golden_spec.expected_path.read_text(encoding="utf-8"))
    assert digest == expected, (
        f"engine output diverged from tests/golden/"
        f"{golden_spec.expected_path.name}; if the change is intentional "
        f"rerun with --update-golden"
    )


def test_golden_trace_batch_path_matches(golden_spec, golden_trace_loader):
    record_results, record_anomalies = run_serial(golden_spec, golden_trace_loader)
    batch_results, batch_anomalies = run_serial(
        golden_spec, golden_trace_loader, path="batch"
    )
    assert batch_results == record_results
    assert [a.to_dict() for a in batch_anomalies] == [
        a.to_dict() for a in record_anomalies
    ]


def test_golden_trace_vector_matches_python(golden_spec, golden_trace_loader):
    """The vector-tier close must reproduce the python-tier scalar walk on
    every golden trace (the broader random-space check lives in
    test_tier_equivalence.py).  On a process that is already on the python
    tier the two runs coincide; the committed digests still pin it."""
    vector_results, vector_anomalies = run_serial(golden_spec, golden_trace_loader)
    with python_tier():
        python_results, python_anomalies = run_serial(
            golden_spec, golden_trace_loader
        )
    assert vector_results == python_results
    assert detection_digest(vector_results, vector_anomalies) == detection_digest(
        python_results, python_anomalies
    )


def test_golden_trace_depth2_sharded_matches_serial(golden_spec, golden_trace_loader):
    """Depth-2 cuts on the golden workloads, against a serial run of the
    SAME ``min_heavy_depth=2`` config (not the committed digests — raising
    the heavy-hitter floor legitimately changes which nodes can detect)."""
    tree, clock, records = golden_trace_loader(golden_spec)
    config = golden_spec.detector_config().replace(min_heavy_depth=2)
    serial = DetectionEngine()
    serial.add_session(
        golden_spec.name, tree, config, algorithm=golden_spec.algorithm, clock=clock
    )
    serial_results = serial.process_stream(records)[golden_spec.name]
    with ShardedDetectionEngine(num_workers=2) as engine:
        engine.add_session(
            golden_spec.name,
            tree,
            config,
            algorithm=golden_spec.algorithm,
            clock=clock,
            subtree_shards=3,
            subtree_depth=2,
        )
        sharded_results = engine.process_stream(records, batch_size=512)[
            golden_spec.name
        ]
        sharded_anomalies = engine.anomalies()[golden_spec.name]
    assert sharded_results == serial_results
    assert [a.to_dict() for a in sharded_anomalies] == [
        a.to_dict() for a in serial.anomalies()[golden_spec.name]
    ]


def test_golden_trace_sharded_path_matches(golden_spec, golden_trace_loader):
    tree, clock, records = golden_trace_loader(golden_spec)
    record_results, record_anomalies = run_serial(golden_spec, golden_trace_loader)
    with ShardedDetectionEngine(num_workers=2) as engine:
        engine.add_session(
            golden_spec.name,
            tree,
            golden_spec.detector_config(),
            algorithm=golden_spec.algorithm,
            clock=clock,
            subtree_shards=2,
        )
        sharded_results = engine.process_stream(records, batch_size=512)[
            golden_spec.name
        ]
        sharded_anomalies = engine.anomalies()[golden_spec.name]
    assert sharded_results == record_results
    assert [a.to_dict() for a in sharded_anomalies] == [
        a.to_dict() for a in record_anomalies
    ]
