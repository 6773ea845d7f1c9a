"""Worker-side execution units shared by every shard transport.

A worker process (or remote worker) holds a dictionary of
:class:`WorkerUnit` objects — whole sessions and subtree-shard sessions —
and executes coordinator verbs against them.  The transport layer
(:mod:`repro.engine.transport`) only moves bytes; the verb semantics live
here so the pipe, shared-memory and TCP transports are guaranteed to run
the exact same code against the exact same state.

Verbs
-----
``add``
    ``[(key, session_state, capture_depth), ...]`` — build sessions from
    serial-format state dicts.  ``capture_depth == 0`` hosts a whole
    session; ``capture_depth >= 1`` hosts a depth-k subtree shard: report
    retention is disabled (the coordinator owns the merged store) and the
    shard's frontier band — root plus ancestors above the cut — is captured
    per closed timeunit for coordinator-side replay.
``remove``
    ``[key, ...]`` — drop units (used by churn-driven rebalancing).
``ingest``
    ``[(key, kind, payload), ...]`` — feed batches (``"whole"``) or, for a
    subtree shard (``"sub"``), one batch of the shard's rows plus the
    watermark segments ``(watermark, start, stop)`` that cut it: advance to
    ``watermark``, then ingest rows ``[start, stop)`` in one call.  The
    coordinator cuts only before a row that is late against a watermark the
    shard has not reached, so an in-order batch is one segment (and, for a
    shard the session moved past, a row-less trailing advance).  Batches
    arrive as timestamps + dictionary codes; no verb reads an attribute
    column, so the coordinator ships none.
``flush`` / ``state`` / ``query``
    Close pending units, export serial-format states, read introspection
    attributes.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Any

from repro.core.results import TimeunitResult
from repro.engine.hooks import EngineObserver
from repro.engine.session import DetectionSession
from repro.exceptions import ShardingError
from repro.io.checkpoint import (
    frontier_band_paths,
    session_from_state_dict,
    session_state_dict,
)


class FrontierCapture(EngineObserver):
    """Records (timeunit, frontier raw weights) per closed timeunit.

    Band raw weights are additive across disjoint subtree shards; the
    coordinator sums the per-shard tuples to replay the shared band's
    split-rule bookkeeping and reference series (see
    ``repro.engine.sharded._FrontierReplica``).
    """

    def __init__(self) -> None:
        self.weights: list[tuple[int, tuple[float, ...]]] = []

    def on_timeunit_closed(
        self, session: DetectionSession, result: TimeunitResult
    ) -> None:
        values = getattr(session.algorithm, "last_frontier_raw", None)
        if values is None:
            values = (float(getattr(session.algorithm, "last_root_raw", 0.0)),)
        self.weights.append((int(result.timeunit), tuple(values)))

    def drain(self) -> list[tuple[int, tuple[float, ...]]]:
        drained, self.weights = self.weights, []
        return drained


class WorkerUnit:
    """One shard unit (a whole session or one subtree group) in a worker."""

    def __init__(self, session: DetectionSession, capture_depth: int):
        self.session = session
        self.capture: "FrontierCapture | None" = None
        if capture_depth >= 1:
            # Subtree shard: the coordinator owns the merged report store, so
            # retaining reports here would only grow worker memory forever.
            session.retain_reports = False
            band = frontier_band_paths(session.tree.leaf_paths(), capture_depth)
            capture_frontier = getattr(session.algorithm, "capture_frontier", None)
            if capture_frontier is not None:
                capture_frontier(band)
            self.capture = FrontierCapture()
            session.subscribe(self.capture)

    def drain(self) -> "list[tuple[int, tuple[float, ...]]] | None":
        return self.capture.drain() if self.capture is not None else None


def worker_handle(units: dict, verb: str, ops: Any) -> Any:
    """Execute one coordinator verb against the worker's unit table."""
    if verb == "add":
        for key, state, capture_depth in ops:
            units[key] = WorkerUnit(
                session_from_state_dict(state), int(capture_depth)
            )
        return None
    if verb == "remove":
        for key in ops:
            units.pop(key, None)
        return None
    if verb == "ingest":
        out = []
        for key, kind, payload in ops:
            unit = units[key]
            closed: list[TimeunitResult] = []
            if kind == "whole":
                closed.extend(unit.session.ingest_record_batch(payload))
            else:  # subtree: (batch-or-None, [(watermark, start, stop), ...])
                columns, segments = payload
                for watermark, start, stop in segments:
                    closed.extend(unit.session.advance_to(watermark))
                    if stop > start:
                        closed.extend(
                            unit.session.ingest_record_batch(
                                columns.slice(start, stop)
                            )
                        )
            out.append((key, closed, unit.drain()))
        return out
    if verb == "flush":
        return [(key, units[key].session.flush(), units[key].drain()) for key in ops]
    if verb == "state":
        return [(key, session_state_dict(units[key].session)) for key in ops]
    if verb == "query":
        what, keys = ops
        if what == "anomalies":
            return [(key, units[key].session.anomalies) for key in keys]
        if what == "units_processed":
            return [(key, units[key].session.units_processed) for key in keys]
        if what == "memory_units":
            return [(key, units[key].session.memory_units()) for key in keys]
        if what == "adaptation_stats":
            return [(key, units[key].session.adaptation_stats()) for key in keys]
        if what == "stage_seconds":
            return [(key, units[key].session.stage_seconds()) for key in keys]
        if what == "close_profile":
            return [(key, units[key].session.close_profile()) for key in keys]
        raise ShardingError(f"unknown worker query {what!r}")
    raise ShardingError(f"unknown worker verb {verb!r}")


def _maybe_worker_fault(worker_id: "int | None", verb: str) -> None:
    """Apply any armed ``worker_exit`` fault for this message.

    The fault plan reaches worker processes through the ``REPRO_FAULT_PLAN``
    environment variable (see :mod:`repro.testing.faults`); a hit hard-exits
    the process *before* replying, simulating a worker that dies
    mid-command.  The lazy import keeps the zero-plan hot path free of any
    testing-module dependency.
    """
    from repro.testing.faults import worker_message_fault

    spec = worker_message_fault(worker_id, verb)
    if spec is not None:  # pragma: no cover - exits the worker process
        import os

        os._exit(23)


def handle_message(
    units: dict, verb: str, ops: Any, worker_id: "int | None" = None
) -> tuple:
    """Run one verb and wrap the outcome as an ``("ok"|"error", ...)`` reply."""
    try:
        _maybe_worker_fault(worker_id, verb)
        return ("ok", worker_handle(units, verb, ops))
    except BaseException as exc:  # noqa: BLE001 - forwarded to coordinator
        return (
            "error",
            (
                transportable(exc),
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
            ),
        )


def transportable(exc: BaseException) -> "BaseException | None":
    """``exc`` itself when it survives a pickle round trip, else None.

    Library exceptions define ``__reduce__`` where needed, so a worker-side
    ``OutOfOrderRecordError`` reaches the coordinator with its documented
    attributes (timestamp, window_start) intact.
    """
    try:
        clone = pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc if type(clone) is type(exc) else None


def revive_exception(
    exc: "BaseException | None", name: str, message: str, trace: str
) -> BaseException:
    """Rebuild a worker-side exception coordinator-side.

    Pickle-transportable exceptions arrive whole (attributes included) and
    are re-raised as-is; the rest surface as :class:`ShardingError` with the
    worker traceback attached.
    """
    if exc is not None:
        return exc
    return ShardingError(f"worker failure: {name}: {message}\n{trace}")
