"""Deterministic test instrumentation for the repro library.

:mod:`repro.testing.faults` is the fault-injection subsystem the chaos
equivalence suite drives: seeded, exactly reproducible fault plans threaded
through the shard transport seam and the checkpoint writer via an explicit
hook (module activation or the ``REPRO_FAULT_PLAN`` env var) — never by
monkeypatching library internals.

:mod:`repro.testing.reference` is the slow, per-path oracle ADA's close is
tested against (import it explicitly; it is not re-exported here).
"""

from repro.testing.faults import FaultPlan, FaultSpec, active_fault_plan

__all__ = ["FaultPlan", "FaultSpec", "active_fault_plan"]
