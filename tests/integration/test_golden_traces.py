"""Golden-trace regression suite.

Small canonical CCD-trouble / CCD-network / SCD traces are committed under
``tests/golden/`` together with the exact detection output the engine must
produce on them (``*.expected.json``).  Any change to the classification,
heavy hitter, forecasting or detection arithmetic shows up as a diff here.

Every test runs once per way of selecting the forecaster — ``"auto"`` and
the built-in model by registry name, ``"holt-winters"`` — against the same
expected files: naming the model changes nothing.

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
from tests.integration.test_reference_oracle import reference_run


@pytest.fixture(params=["auto", "holt-winters"])
def model(request) -> str:
    return request.param


def detector_config(spec, model: str, **changes):
    config = spec.detector_config().replace(**changes)
    return config.replace(forecast=config.forecast.replace(model=model))


def detection_digest(results, anomalies) -> dict:
    """The JSON document a golden run is compared by (stable ordering)."""
    return {
        "num_results": len(results),
        "total_heavy_hitters": sum(r.num_heavy_hitters for r in results),
        "total_anomalies": sum(r.num_anomalies for r in results),
        "anomalies": [anomaly.to_dict() for anomaly in anomalies],
    }


def run_serial(spec, loader, model, path="record"):
    tree, clock, records = loader(spec)
    engine = DetectionEngine()
    engine.add_session(
        spec.name, tree, detector_config(spec, model), algorithm=spec.algorithm, clock=clock
    )
    if path == "record":
        results = engine.process_stream(records)[spec.name]
    else:
        results = engine.process_batches(iter_record_batches(records, 512))[spec.name]
    return results, engine.anomalies()[spec.name]


def test_golden_trace_detections(golden_spec, golden_trace_loader, model, update_golden):
    results, anomalies = run_serial(golden_spec, golden_trace_loader, model)
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


def test_golden_trace_batch_path_matches(golden_spec, golden_trace_loader, model):
    record_results, record_anomalies = run_serial(golden_spec, golden_trace_loader, model)
    batch_results, batch_anomalies = run_serial(
        golden_spec, golden_trace_loader, model, path="batch"
    )
    assert batch_results == record_results
    assert [a.to_dict() for a in batch_anomalies] == [
        a.to_dict() for a in record_anomalies
    ]


def test_golden_trace_matches_the_reference(golden_spec, golden_trace_loader):
    """The per-path reference reproduces every golden trace's per-unit
    results (the random-space check lives in test_reference_oracle.py)."""
    results, anomalies = run_serial(golden_spec, golden_trace_loader, "auto")
    tree, clock, records = golden_trace_loader(golden_spec)
    _oracle, want, want_anomalies = reference_run(
        tree, clock, records, golden_spec.detector_config()
    )
    assert results == want
    assert [a.to_dict() for a in anomalies] == want_anomalies


def test_golden_trace_depth2_sharded_matches_serial(
    golden_spec, golden_trace_loader, model
):
    """Depth-2 cuts on the golden workloads, against a serial run of the
    SAME ``min_heavy_depth=2`` config (not the committed digests — raising
    the heavy-hitter floor legitimately changes which nodes can detect)."""
    tree, clock, records = golden_trace_loader(golden_spec)
    config = detector_config(golden_spec, model, min_heavy_depth=2)
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
        sharded_results = engine.process_batches(iter_record_batches(records, 512))[
            golden_spec.name
        ]
        sharded_anomalies = engine.anomalies()[golden_spec.name]
    assert sharded_results == serial_results
    assert [a.to_dict() for a in sharded_anomalies] == [
        a.to_dict() for a in serial.anomalies()[golden_spec.name]
    ]


def test_golden_trace_sharded_path_matches(golden_spec, golden_trace_loader, model):
    tree, clock, records = golden_trace_loader(golden_spec)
    record_results, record_anomalies = run_serial(golden_spec, golden_trace_loader, model)
    with ShardedDetectionEngine(num_workers=2) as engine:
        engine.add_session(
            golden_spec.name,
            tree,
            detector_config(golden_spec, model),
            algorithm=golden_spec.algorithm,
            clock=clock,
            subtree_shards=2,
        )
        sharded_results = engine.process_batches(iter_record_batches(records, 512))[
            golden_spec.name
        ]
        sharded_anomalies = engine.anomalies()[golden_spec.name]
    assert sharded_results == record_results
    assert [a.to_dict() for a in sharded_anomalies] == [
        a.to_dict() for a in record_anomalies
    ]
