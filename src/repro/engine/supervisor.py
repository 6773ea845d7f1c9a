"""Worker supervision for the sharded engine.

:class:`ShardSupervisor` wraps a :class:`~repro.engine.transport.base.ShardTransport`
and is the *only* path through which the sharded engine ships commands and
collects replies.  It adds three things the raw transports do not promise:

1. **Bounded operations** — every collect runs under a per-operation
   deadline (``op_timeout``), so a dead, wedged or black-holed worker
   surfaces as a typed, picklable
   :class:`~repro.exceptions.WorkerFailureError` instead of hanging the
   coordinator.  Transport-level failures of any flavour are normalised to
   that same type, so the engine's recovery path has exactly one exception
   to catch.
2. **Deterministic fault injection** — before each ship/collect the
   supervisor consults the active :class:`~repro.testing.faults.FaultPlan`
   (if any) and applies the planned fault at this seam: kill the worker,
   delay, drop or corrupt the frame.  No monkeypatching, no test-only
   subclasses; with no plan active the hook is a single ``None`` check.
3. **Safe respawn** — :meth:`respawn` replaces a dead worker under
   :func:`repro.testing.faults.disarmed`, so a replacement process never
   inherits still-armed faults and crash-loops.

The supervisor is deliberately stateless about *sessions*: snapshotting,
op-log replay and unit restoration live in
:class:`~repro.engine.sharded.ShardedDetectionEngine`, which owns the
state needed to rebuild a worker bit-identically.
"""

from __future__ import annotations

import time
from typing import Any

from repro.engine.transport.base import ShardTransport
from repro.exceptions import ShardingError, WorkerFailureError
from repro.testing.faults import active_fault_plan, disarmed


class ShardSupervisor:
    """Deadline-checked, fault-injectable front end over a shard transport."""

    def __init__(
        self,
        transport: ShardTransport,
        op_timeout: float = 60.0,
    ) -> None:
        self.transport = transport
        self.op_timeout = float(op_timeout)
        #: WorkerFailureErrors surfaced (pre-recovery), by op.
        self.failures_total = 0
        #: Planned faults actually applied at this seam.
        self.faults_injected = 0

    # ------------------------------------------------------------------
    def _kill(self, worker_id: int) -> None:
        try:
            self.transport.kill_worker(worker_id)
        except ShardingError:  # pragma: no cover - transport without kill
            pass

    # ------------------------------------------------------------------
    def ship(self, worker_id: int, verb: str, ops: Any) -> None:
        corrupt = False
        plan = active_fault_plan()
        if plan is not None:
            spec = plan.next_transport_action("ship", worker_id)
            if spec is not None:
                self.faults_injected += 1
                if spec.kind == "kill_worker":
                    self._kill(worker_id)
                elif spec.kind == "delay_frame":
                    time.sleep(spec.seconds)
                elif spec.kind == "drop_frame":
                    # The frame never leaves the coordinator; the worker
                    # will not reply and the collect deadline converts the
                    # silence into a typed failure.
                    return
                elif spec.kind == "corrupt_frame":
                    corrupt = True
        try:
            self.transport.ship(worker_id, verb, ops, corrupt=corrupt)
        except WorkerFailureError:
            self.failures_total += 1
            raise
        except ShardingError as exc:
            self.failures_total += 1
            raise WorkerFailureError(worker_id, "ship", str(exc)) from exc

    def collect(self, worker_id: int) -> tuple:
        plan = active_fault_plan()
        if plan is not None:
            spec = plan.next_transport_action("collect", worker_id)
            if spec is not None:
                self.faults_injected += 1
                if spec.kind == "kill_worker":
                    self._kill(worker_id)
                elif spec.kind == "delay_frame":
                    time.sleep(spec.seconds)
                elif spec.kind == "drop_frame":
                    # Losing a reply == receiving it and throwing it away;
                    # consume best-effort, then fail typed so recovery
                    # rebuilds the worker (which may have applied the op).
                    try:
                        self.transport.collect(worker_id, timeout=self.op_timeout)
                    except ShardingError:
                        pass
                    self.failures_total += 1
                    raise WorkerFailureError(
                        worker_id, "collect", "reply frame dropped (injected fault)"
                    )
        try:
            return self.transport.collect(worker_id, timeout=self.op_timeout)
        except WorkerFailureError:
            self.failures_total += 1
            raise
        except ShardingError as exc:
            self.failures_total += 1
            raise WorkerFailureError(worker_id, "collect", str(exc)) from exc

    # ------------------------------------------------------------------
    def respawn(self, worker_id: int) -> None:
        """Kill-and-replace ``worker_id`` with faults disarmed for the child."""
        self._kill(worker_id)
        with disarmed():
            self.transport.respawn(worker_id)

    def stats(self) -> dict[str, Any]:
        return {
            "op_timeout": self.op_timeout,
            "failures_total": self.failures_total,
            "faults_injected": self.faults_injected,
        }
