"""Golden-trace regression suite.

Small canonical CCD-trouble / CCD-network / SCD traces are committed under
``tests/golden/`` together with the exact detection output the engine must
produce on them (``*.expected.json``).  Any change to the classification,
heavy hitter, forecasting or detection arithmetic shows up as a diff here.

Each expected file also pins, under ``"checkpoint_sha256"``, the sha256 of
the checkpoint bytes (wall-clock fields stripped) that the serial ADA and STA
sessions and a 2-subtree-shard ADA engine hold at the end of the trace: a
change to how state is serialized shows up here even when detections agree.

Run ``pytest tests/integration/test_golden_traces.py --update-golden`` after
an *intentional* output change to rewrite the expected files; review the diff
before committing.  The specs themselves (generator seeds, detector configs)
live in ``tests/conftest.py`` next to the ``golden_spec`` fixture.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.engine.engine import DetectionEngine
from repro.engine.sharded import ShardedDetectionEngine
from repro.streaming.batch import iter_record_batches
from tests.conftest import canonical_checkpoint
from tests.integration.test_reference_oracle import reference_run

#: Key of the checkpoint digests in an expected file; the detection digest
#: is everything else.
CHECKPOINT_KEY = "checkpoint_sha256"


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


def read_expected(spec) -> dict:
    if not spec.expected_path.exists():
        return {}
    return json.loads(spec.expected_path.read_text(encoding="utf-8"))


def write_expected(spec, **sections) -> None:
    """Rewrite ``sections`` of an expected file, keeping the others."""
    document = read_expected(spec)
    document.update(sections)
    spec.expected_path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def test_golden_trace_detections(golden_spec, golden_trace_loader, update_golden):
    results, anomalies = run_serial(golden_spec, golden_trace_loader)
    digest = detection_digest(results, anomalies)
    assert digest["total_anomalies"] > 0, (
        "a golden trace without detections would not regress anything useful"
    )
    if update_golden or not golden_spec.expected_path.exists():
        write_expected(golden_spec, **digest)
        if not update_golden:
            pytest.skip(
                f"expected file for {golden_spec.name} created; rerun to compare"
            )
    expected = read_expected(golden_spec)
    expected.pop(CHECKPOINT_KEY, None)
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


def test_golden_trace_matches_the_reference(golden_spec, golden_trace_loader):
    """The per-path reference reproduces every golden trace's per-unit
    results (the random-space check lives in test_reference_oracle.py)."""
    results, anomalies = run_serial(golden_spec, golden_trace_loader)
    tree, clock, records = golden_trace_loader(golden_spec)
    _oracle, want, want_anomalies = reference_run(
        tree, clock, records, golden_spec.detector_config()
    )
    assert results == want
    assert [a.to_dict() for a in anomalies] == want_anomalies


def test_golden_trace_sharded_head_resumes_serially(golden_spec, golden_trace_loader):
    """Three subtree shards run the first half of a golden trace; their
    merged checkpoint, restored into a serial engine, finishes it exactly
    like an uninterrupted serial run."""
    tree, clock, records = golden_trace_loader(golden_spec)
    record_results, record_anomalies = run_serial(golden_spec, golden_trace_loader)
    batches = list(iter_record_batches(records, 512))
    half = len(batches) // 2
    with ShardedDetectionEngine(num_workers=2) as engine:
        engine.add_session(
            golden_spec.name,
            tree,
            golden_spec.detector_config(),
            algorithm=golden_spec.algorithm,
            clock=clock,
            subtree_shards=3,
        )
        results = []
        for batch in batches[:half]:  # no flush: the open unit is checkpointed
            results += engine.ingest_record_batch(batch)[golden_spec.name]
        state = engine.state_dict()
    serial = DetectionEngine.from_state_dict(state)
    results += serial.process_batches(batches[half:])[golden_spec.name]
    assert results == record_results
    assert [a.to_dict() for a in serial.anomalies()[golden_spec.name]] == [
        a.to_dict() for a in record_anomalies
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
        sharded_results = engine.process_batches(iter_record_batches(records, 512))[
            golden_spec.name
        ]
        sharded_anomalies = engine.anomalies()[golden_spec.name]
    assert sharded_results == record_results
    assert [a.to_dict() for a in sharded_anomalies] == [
        a.to_dict() for a in record_anomalies
    ]


def checkpoint_digests(spec, loader) -> dict[str, str]:
    """sha256 of the end-of-trace checkpoint bytes (wall-clock fields
    stripped) of a serial ADA session, a serial STA session and the merged
    state of an ADA session split into two subtree shards."""
    tree, clock, records = loader(spec)
    config = spec.detector_config()
    states = {}
    for algorithm in ("ada", "sta"):
        engine = DetectionEngine()
        engine.add_session(spec.name, tree, config, algorithm=algorithm, clock=clock)
        engine.process_stream(records)
        states[f"serial_{algorithm}"] = engine.sessions[spec.name].state_dict()
    with ShardedDetectionEngine(num_workers=2) as engine:
        engine.add_session(
            spec.name, tree, config, algorithm="ada", clock=clock, subtree_shards=2
        )
        engine.process_batches(iter_record_batches(records, 512))
        (states["sharded_ada_2"],) = engine.state_dict()["sessions"]
    return {
        name: hashlib.sha256(canonical_checkpoint(state)).hexdigest()
        for name, state in states.items()
    }


def test_golden_trace_checkpoint_bytes(golden_spec, golden_trace_loader, update_golden):
    """Checkpoint bytes are pinned to fixed digests, not only compared
    across paths: serializing the same state differently fails here."""
    digests = checkpoint_digests(golden_spec, golden_trace_loader)
    if update_golden or CHECKPOINT_KEY not in read_expected(golden_spec):
        write_expected(golden_spec, **{CHECKPOINT_KEY: digests})
        if not update_golden:
            pytest.skip(
                f"checkpoint digests for {golden_spec.name} recorded; rerun to compare"
            )
    assert digests == read_expected(golden_spec)[CHECKPOINT_KEY], (
        f"checkpoint bytes diverged from tests/golden/"
        f"{golden_spec.expected_path.name}; if the change is intentional "
        f"rerun with --update-golden"
    )
