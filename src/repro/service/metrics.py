"""Live metrics for the detection daemon.

``GET /metrics`` returns one JSON document assembled here from the moving
parts of a :class:`~repro.service.daemon.DetectionService`:

* ``service`` — identity, uptime, front-end counters (requests, records,
  and the NDJSON decoder's share: ``ingest_decode_seconds_total``,
  ``ingest_bytes_total`` over both the HTTP and the socket edge);
* ``queue`` — the backpressure picture: depth vs. capacity, high-water
  mark, admitted/rejected batch totals, socket-path read pauses,
  worker errors;
* ``checkpoint`` — cadence, retention depth, totals, last-write time,
  corrupt-checkpoint fallbacks (``checkpoint_fallbacks_total``), write
  failures, resume/eviction counters (the eviction lifecycle is
  observable here);
* ``recovery`` — sharded worker-supervision counters (worker recoveries,
  replayed batches, tenants currently degraded);
* ``reconfiguration`` — online config swaps and shadow-experiment
  lifecycle counters (started/stopped/promoted/active);
* ``alerts`` — egress delivery counters per sink;
* ``tenants`` — per-tenant state, including live
  ``adaptation_stats()`` and per-stage close timings for active sessions
  (see :meth:`SessionManager.tenant_snapshot
  <repro.service.manager.SessionManager.tenant_snapshot>`).

JSON (not Prometheus text) keeps the endpoint dependency-free and directly
assertable in tests; a production wrapper can flatten it trivially.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.daemon import DetectionService


class Counters:
    """A tiny thread-safe named-counter bag for front-end bookkeeping."""

    def __init__(self):
        self._lock = threading.Lock()
        self._values: dict[str, float] = {}

    def inc(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._values[name] = self._values.get(name, 0) + amount

    def get(self, name: str) -> float:
        with self._lock:
            return self._values.get(name, 0)

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self._values)


def healthz_document(service: "DetectionService") -> dict[str, Any]:
    """The ``GET /healthz`` body: liveness + drain state + degraded mode.

    ``degraded`` is true while any sharded tenant is mid worker-recovery
    (respawn + state replay).  Everything here reads lock-free manager
    accessors: recovery runs on the ingest thread *holding* the manager
    lock, and the health probe must keep answering exactly then.
    """
    worker = service.worker
    degraded = service.manager.degraded_tenants()
    return {
        "status": "ok" if worker.running else "stopped",
        "drained": worker.drained(),
        "queue_depth": worker.depth(),
        "active_sessions": service.manager.active_count(),
        "uptime_seconds": service.uptime_seconds(),
        "degraded": bool(degraded),
        "recovering_tenants": degraded,
    }


def metrics_document(service: "DetectionService") -> dict[str, Any]:
    """The full ``GET /metrics`` body."""
    import repro

    manager = service.manager
    manager_counters = manager.counters()
    alerts: dict[str, Any] = {}
    if service.jsonl_sink is not None:
        alerts["jsonl"] = service.jsonl_sink.counters()
    if service.webhook_sink is not None:
        alerts["webhook"] = service.webhook_sink.counters()
    from repro._vector import backend_tier

    return {
        "service": {
            "version": repro.__version__,
            "backend_tier": backend_tier(),
            "time_unix": time.time(),
            "uptime_seconds": service.uptime_seconds(),
            "active_sessions": manager_counters["active_sessions"],
            "known_tenants": manager_counters["known_tenants"],
            "http": service.counters.snapshot(),
        },
        "queue": service.worker.counters(),
        "checkpoint": {
            "dir": str(manager.checkpoint_dir),
            "interval_seconds": service.config.checkpoint_interval,
            "retention": manager_counters["checkpoint_retention"],
            "written_total": manager_counters["checkpoints_written_total"],
            "checkpoint_fallbacks_total": (
                manager_counters["checkpoint_fallbacks_total"]
            ),
            "write_failures_total": (
                manager_counters["checkpoint_write_failures_total"]
            ),
            "last_write_unix": manager_counters["last_checkpoint_unix"],
            "last_error": manager_counters["last_checkpoint_error"],
            "last_fallback": manager_counters["last_checkpoint_fallback"],
            "activations_total": manager_counters["activations_total"],
            "resumes_total": manager_counters["resumes_total"],
            "fresh_starts_total": manager_counters["fresh_starts_total"],
            "evictions_total": manager_counters["evictions_total"],
        },
        "recovery": {
            **manager.recovery_counters(),
            "degraded_tenants": manager.degraded_tenants(),
        },
        "reconfiguration": {
            "reconfigures_total": manager_counters["reconfigures_total"],
            "shadows_started_total": manager_counters["shadows_started_total"],
            "shadows_stopped_total": manager_counters["shadows_stopped_total"],
            "shadows_promoted_total": manager_counters["shadows_promoted_total"],
            "shadows_active": manager_counters["shadows_active"],
        },
        "alerts": alerts,
        "tenants": manager.tenant_snapshot(),
    }
