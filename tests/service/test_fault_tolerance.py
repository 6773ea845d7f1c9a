"""Service-layer fault tolerance: checkpoint retention, corrupt fallback,
resilient sweeps, webhook retry/backoff, degraded health.

Companions to ``tests/integration/test_fault_recovery.py`` (which owns the
sharded-engine chaos matrix): these tests pin the *operational* half of the
fault-tolerance story — the :class:`SessionManager`'s rolling checkpoint
retention with quarantine-and-fall-back activation, the per-tenant
resilience of ``checkpoint_all``, the lock-free ``/healthz`` degraded flag,
and the :class:`WebhookAlertSink`'s bounded, deterministically-jittered
retry queue.
"""

from __future__ import annotations

import json
import threading
from random import Random

import pytest

from repro.exceptions import CheckpointReadError
from repro.io.checkpoint import retained_checkpoint_path
from repro.service.alerts import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    MAX_RETRIES,
    RETRY_QUEUE_MAX,
    WebhookAlertSink,
)
from repro.service.config import ServiceConfig
from repro.service.manager import SessionManager
from repro.streaming.batch import iter_record_batches
from repro.testing.faults import FaultPlan, FaultSpec, active

from tests.service.conftest import (
    state_bytes,
    tenant_spec_for,
    tiny_dataset,
)


def make_manager(tmp_path, dataset, **kwargs) -> SessionManager:
    return SessionManager(
        [tenant_spec_for("tiny", dataset)], tmp_path / "ckpt", **kwargs
    )


def ingest_some(manager, dataset, count=300) -> None:
    records = list(dataset.records())[:count]
    for batch in iter_record_batches(iter(records), 128):
        manager.ingest_batch("tiny", batch)


# ----------------------------------------------------------------------
# Rolling retention
# ----------------------------------------------------------------------
def test_checkpoint_all_keeps_last_n(tmp_path):
    dataset = tiny_dataset()
    manager = make_manager(tmp_path, dataset, checkpoint_retention=3)
    ingest_some(manager, dataset)
    primary = manager.checkpoint_path("tiny")
    for _ in range(4):
        manager.checkpoint_all()
    assert primary.exists()
    assert retained_checkpoint_path(primary, 1).exists()
    assert retained_checkpoint_path(primary, 2).exists()
    assert not retained_checkpoint_path(primary, 3).exists()
    assert manager.retained_checkpoint_paths("tiny") == [
        primary,
        retained_checkpoint_path(primary, 1),
        retained_checkpoint_path(primary, 2),
    ]


def test_corrupt_newest_falls_back_and_quarantines(tmp_path):
    dataset = tiny_dataset()
    manager = make_manager(tmp_path, dataset, checkpoint_retention=3)
    ingest_some(manager, dataset)
    manager.checkpoint_all()
    good_state = state_bytes(manager.session("tiny").state_dict())
    manager.checkpoint_all()  # primary + .1 now both valid
    primary = manager.checkpoint_path("tiny")
    primary.write_text('{"torn": ', encoding="utf-8")  # corrupt the newest

    fresh = make_manager(tmp_path, dataset, checkpoint_retention=3)
    session = fresh.session("tiny")
    assert fresh.resumes_total == 1
    assert fresh.checkpoint_fallbacks_total == 1
    assert fresh.counters()["checkpoint_fallbacks_total"] == 1
    assert fresh.last_checkpoint_fallback["path"] == str(primary)
    # The corrupt file was quarantined, not deleted.
    assert not primary.exists()
    assert primary.with_name(f"{primary.name}.corrupt").exists()
    # The fallback restored the exact pre-corruption state.
    assert state_bytes(session.state_dict()) == good_state


def test_invalid_utf8_newest_falls_back_and_quarantines(tmp_path):
    """Bytes that are not UTF-8 are a corrupt checkpoint like torn JSON: the
    file is quarantined and the ``.1`` predecessor resumes."""
    dataset = tiny_dataset()
    manager = make_manager(tmp_path, dataset, checkpoint_retention=3)
    ingest_some(manager, dataset)
    manager.checkpoint_all()
    good_state = state_bytes(manager.session("tiny").state_dict())
    manager.checkpoint_all()  # primary + .1 now both valid
    primary = manager.checkpoint_path("tiny")
    primary.write_bytes(b'{"format": "tiresias-checkpoint", "v\xff\xfe')

    fresh = make_manager(tmp_path, dataset, checkpoint_retention=3)
    session = fresh.session("tiny")
    assert fresh.resumes_total == 1
    assert fresh.checkpoint_fallbacks_total == 1
    assert fresh.last_checkpoint_fallback["path"] == str(primary)
    assert not primary.exists()
    assert primary.with_name(f"{primary.name}.corrupt").exists()
    assert state_bytes(session.state_dict()) == good_state


def test_all_corrupt_without_spec_raises_typed(tmp_path):
    dataset = tiny_dataset()
    manager = make_manager(tmp_path, dataset, checkpoint_retention=2)
    ingest_some(manager, dataset)
    manager.checkpoint_all()
    manager.checkpoint_all()
    primary = manager.checkpoint_path("tiny")
    primary.write_text("junk", encoding="utf-8")
    retained_checkpoint_path(primary, 1).write_text("junk", encoding="utf-8")

    orphan = SessionManager([], tmp_path / "ckpt", checkpoint_retention=2)
    assert orphan.is_known("tiny")  # retained files keep the tenant known
    with pytest.raises(CheckpointReadError):
        orphan.session("tiny")
    assert orphan.checkpoint_fallbacks_total == 2


def test_all_corrupt_with_spec_starts_fresh(tmp_path):
    dataset = tiny_dataset()
    manager = make_manager(tmp_path, dataset, checkpoint_retention=1)
    ingest_some(manager, dataset)
    manager.checkpoint_all()
    manager.checkpoint_path("tiny").write_text("junk", encoding="utf-8")

    fresh = make_manager(tmp_path, dataset, checkpoint_retention=1)
    fresh.session("tiny")
    assert fresh.fresh_starts_total == 1
    assert fresh.resumes_total == 0
    assert fresh.checkpoint_fallbacks_total == 1


def test_enospc_sweep_counts_failure_and_preserves_previous(tmp_path):
    dataset = tiny_dataset()
    manager = make_manager(tmp_path, dataset, checkpoint_retention=3)
    ingest_some(manager, dataset)
    manager.checkpoint_all()
    primary = manager.checkpoint_path("tiny")
    good_bytes = primary.read_bytes()

    plan = FaultPlan([FaultSpec("checkpoint_enospc", path_substring="tiny")])
    with active(plan):
        with pytest.raises(Exception):
            manager.checkpoint_all()
    assert plan.fired
    assert manager.checkpoint_write_failures_total == 1
    assert manager.last_checkpoint_error is not None
    # Rolling write order (rotate, then atomic replace) guarantees the
    # previous checkpoint survives the full disk, at the primary path.
    assert primary.read_bytes() == good_bytes
    # And the next sweep succeeds again.
    manager.checkpoint_all()
    assert manager.checkpoints_written_total >= 2


def test_service_config_retention_round_trip(tmp_path):
    dataset = tiny_dataset()
    config = ServiceConfig(
        tenants=(tenant_spec_for("tiny", dataset),),
        checkpoint_dir=tmp_path / "ckpt",
        checkpoint_retention=5,
    )
    clone = ServiceConfig.from_dict(config.to_dict())
    assert clone.checkpoint_retention == 5
    with pytest.raises(Exception):
        ServiceConfig(
            tenants=(tenant_spec_for("tiny", dataset),),
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_retention=0,
        )


# ----------------------------------------------------------------------
# Degraded-mode accessors
# ----------------------------------------------------------------------
def test_degraded_and_recovery_counters_default_empty(tmp_path):
    dataset = tiny_dataset()
    manager = make_manager(tmp_path, dataset)
    ingest_some(manager, dataset, count=100)
    assert manager.degraded_tenants() == []
    assert manager.recovery_counters() == {
        "worker_recoveries_total": 0,
        "replayed_batches_total": 0,
    }
    assert manager.active_count() == 1


class _FakeRecoveringSession:
    recovering = True
    recoveries_total = 2
    replayed_batches_total = 5


def test_degraded_tenants_reads_session_flags(tmp_path):
    dataset = tiny_dataset()
    manager = make_manager(tmp_path, dataset)
    manager._active["shardy"] = _FakeRecoveringSession()
    assert manager.degraded_tenants() == ["shardy"]
    counters = manager.recovery_counters()
    assert counters["worker_recoveries_total"] == 2
    assert counters["replayed_batches_total"] == 5


# ----------------------------------------------------------------------
# Webhook retry/backoff
# ----------------------------------------------------------------------
class _Session:
    name = "tiny"


class _Anomaly:
    @staticmethod
    def to_dict():
        return {"node": ["a"], "timeunit": 1}


def _flaky_sink(fail_first_n):
    """A sink whose ``_post`` fails the first N attempts, then succeeds."""
    sleeps: list[float] = []
    attempts = {"n": 0}

    class Sink(WebhookAlertSink):
        def _post(self, payload: bytes) -> None:
            attempts["n"] += 1
            if attempts["n"] <= fail_first_n:
                raise OSError("connection refused")

    sink = Sink("http://127.0.0.1:1/hook", sleep=sleeps.append, rng=Random(42))
    return sink, sleeps, attempts


def test_webhook_retries_with_capped_backoff():
    sink, sleeps, attempts = _flaky_sink(3)
    sink.on_anomaly(_Session(), _Anomaly())
    assert sink.wait_idle(timeout=10.0)
    sink.close()
    # 1 inline failure + 2 failed retries + 1 successful retry.
    assert attempts["n"] == 4
    assert sink.delivered_total == 1
    assert sink.retried_total == 1
    assert sink.failed_total == 3
    assert sink.retries_exhausted_total == 0
    # Backoff schedule: 0.25 s doubling per retry — plus <= 10% jitter.
    assert len(sleeps) == 3
    expected = [0.25, 0.5, 1.0]  # min(BACKOFF_CAP, BACKOFF_BASE * 2**(k-1))
    for got, base in zip(sleeps, expected):
        assert base <= got <= base * 1.1 + 1e-9
    # ... capped at 30 s however late the retry.
    for attempt in (8, 9, 40):
        base = min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (attempt - 1))
        assert base <= sink._backoff_delay(attempt) <= base * 1.1 + 1e-9
    assert (BACKOFF_BASE, BACKOFF_CAP) == (0.25, 30.0)
    # Deterministic: same rng seed reproduces the identical schedule.
    sink2, sleeps2, _ = _flaky_sink(3)
    sink2.on_anomaly(_Session(), _Anomaly())
    assert sink2.wait_idle(timeout=10.0)
    sink2.close()
    assert sleeps2 == sleeps


def test_webhook_exhausts_retries_and_counts():
    sink, sleeps, attempts = _flaky_sink(99)
    sink.on_anomaly(_Session(), _Anomaly())
    assert sink.wait_idle(timeout=10.0)
    sink.close()
    assert MAX_RETRIES == 4
    assert attempts["n"] == 1 + MAX_RETRIES  # inline + every retry
    assert len(sleeps) == MAX_RETRIES
    assert sink.retries_exhausted_total == 1
    assert sink.delivered_total == 0
    assert sink.counters()["retries_exhausted_total"] == 1


def test_webhook_queue_is_bounded():
    sink, _sleeps, _attempts = _flaky_sink(10**9)
    # Stall the retry thread so enqueues accumulate: swap sleep for a gate.
    gate = threading.Event()
    sink._sleep = lambda _s: gate.wait(5.0)
    assert RETRY_QUEUE_MAX == 256
    for _ in range(RETRY_QUEUE_MAX + 2):
        sink.on_anomaly(_Session(), _Anomaly())
    assert sink.dropped_total >= 1  # oldest entries evicted, bounded queue
    assert len(sink._queue) == RETRY_QUEUE_MAX
    gate.set()
    sink.close()


def test_webhook_wait_idle_times_out_while_a_retry_is_pending():
    sink, _sleeps, _attempts = _flaky_sink(10**9)
    gate = threading.Event()
    sink._sleep = lambda _s: gate.wait(5.0)
    sink.on_anomaly(_Session(), _Anomaly())
    assert sink.wait_idle(timeout=0.05) is False
    gate.set()
    sink.close()


def test_webhook_failure_never_raises_inline():
    sink, _sleeps, attempts = _flaky_sink(1)
    sink.on_anomaly(_Session(), _Anomaly())  # a failed first attempt is queued
    assert sink.failed_total == 1
    assert "connection refused" in sink.last_error
    assert sink.wait_idle(timeout=10.0)
    sink.close()
    assert attempts["n"] == 2
    assert sink.delivered_total == 1


def test_webhook_counters_shape():
    sink = WebhookAlertSink("http://127.0.0.1:1/hook")
    counters = sink.counters()
    for key in (
        "url",
        "delivered_total",
        "failed_total",
        "retried_total",
        "retries_exhausted_total",
        "dropped_total",
        "retry_queue_depth",
        "last_error",
    ):
        assert key in counters
    sink.close()


# ----------------------------------------------------------------------
# /healthz & /metrics shape (document-level, no sockets)
# ----------------------------------------------------------------------
def test_healthz_and_metrics_documents_carry_fault_fields(tmp_path):
    from repro.service.daemon import DetectionService
    from repro.service.metrics import healthz_document, metrics_document

    dataset = tiny_dataset()
    config = ServiceConfig(
        tenants=(tenant_spec_for("tiny", dataset),),
        checkpoint_dir=tmp_path / "ckpt",
        checkpoint_interval=0.0,
        checkpoint_retention=4,
    )
    service = DetectionService(config)
    service.worker.start()
    try:
        health = healthz_document(service)
        assert health["degraded"] is False
        assert health["recovering_tenants"] == []
        metrics = metrics_document(service)
        assert metrics["checkpoint"]["retention"] == 4
        assert metrics["checkpoint"]["checkpoint_fallbacks_total"] == 0
        assert metrics["checkpoint"]["write_failures_total"] == 0
        assert metrics["recovery"]["worker_recoveries_total"] == 0
        assert metrics["recovery"]["degraded_tenants"] == []
        assert json.dumps(metrics)  # JSON-serializable end to end
    finally:
        service.worker.stop()
