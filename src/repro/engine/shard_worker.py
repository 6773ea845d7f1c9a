"""Worker-side execution units shared by every shard transport.

A worker process (or remote worker) holds a dictionary of
:class:`WorkerUnit` objects — one per shard group, an unsplit session being
a one-group unit — and executes coordinator verbs against them.  The
transport layer (:mod:`repro.engine.transport`) only moves bytes; the verb
semantics live here so the pipe, shared-memory and TCP transports are
guaranteed to run the exact same code against the exact same state.

Verbs
-----
``add``
    ``[(key, session_state, capture_root), ...]`` — build sessions from
    serial-format state dicts (shipped with ``max_results: 0``).  Report
    retention is disabled: the coordinator owns the merged store.
    ``capture_root`` is set for an ADA subtree shard, whose root raw weight
    is captured per closed timeunit for coordinator-side replay; a unit
    without a root replica (an unsplit session or an STA subtree shard)
    captures nothing.
``ingest``
    ``[(key, batch, segments), ...]`` — one batch of the unit's rows (or
    ``None``) plus the watermark segments ``(watermark, start, stop)`` that
    cut it: advance to ``watermark``, then ingest rows ``[start, stop)`` in
    one call.  The coordinator cuts only before a row that is late against
    a watermark the shard has not reached, so an in-order batch is one
    segment (and, for a shard the session moved past, a row-less trailing
    advance).  Batches arrive as timestamps + dictionary codes; no verb
    reads an attribute column, so the coordinator ships none.  The reply
    lists, per op, the results the unit closed (and a capturing shard's
    root weights); an error reply carries those its ops closed before
    the error (see :func:`handle_message`).
``flush`` / ``state``
    Close pending units, export serial-format states.
``query``
    ``(what, [key, ...])`` — read ``pending_unit``, ``memory_units``,
    ``adaptation_stats``, ``stage_seconds`` or ``close_profile`` per unit.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Any, Iterable

from repro.core.results import TimeunitResult
from repro.engine.hooks import EngineObserver
from repro.engine.session import DetectionSession
from repro.exceptions import ShardingError


class CloseCapture(EngineObserver):
    """Records every result a worker session closes, and for an ADA subtree
    shard its root raw weight, until the next reply drains them.

    Observing the closes, rather than keeping what a call returns, leaves
    the results of a call that raised part-way in hand too.  Root raw
    weights are additive across disjoint subtree shards; the coordinator
    sums them to replay the root's split-rule statistics (see
    :class:`~repro.engine.subtree.FrontierReplica`).
    """

    def __init__(self, capture_root: bool) -> None:
        self.results: list[TimeunitResult] = []
        self.weights: "list[float] | None" = [] if capture_root else None

    def on_timeunit_closed(
        self, session: DetectionSession, result: TimeunitResult
    ) -> None:
        self.results.append(result)
        if self.weights is not None:
            self.weights.append(session.algorithm.last_root_raw)

    def drain(self) -> "tuple[list[TimeunitResult], list[float] | None]":
        results, self.results = self.results, []
        weights = self.weights
        if weights is not None:
            self.weights = []
        return results, weights


class WorkerUnit:
    """One shard group (an unsplit session or one subtree group) in a worker."""

    def __init__(self, session: DetectionSession, capture_root: bool):
        self.session = session
        # The coordinator owns the merged report store, so retaining reports
        # here would only grow worker memory forever.
        session.retain_reports = False
        self.capture = CloseCapture(capture_root)
        session.subscribe(self.capture)


def _drained(units: dict, keys: Iterable[Any]) -> list:
    """``(key, results, root weights)`` of what each unit closed since
    the last reply."""
    return [(key, *units[key].capture.drain()) for key in keys if key in units]


def worker_handle(units: dict, verb: str, ops: Any) -> Any:
    """Execute one coordinator verb against the worker's unit table."""
    if verb == "add":
        for key, state, capture_root in ops:
            units[key] = WorkerUnit(
                DetectionSession.from_state_dict(state), bool(capture_root)
            )
        return None
    if verb == "ingest":
        for key, columns, segments in ops:
            session = units[key].session
            for watermark, start, stop in segments:
                session.advance_to(watermark)
                if stop > start:
                    session.ingest_record_batch(columns.slice(start, stop))
        return _drained(units, [key for key, _columns, _segments in ops])
    if verb == "flush":
        for key in ops:
            units[key].session.flush()
        return _drained(units, ops)
    if verb == "state":
        return [(key, units[key].session.state_dict()) for key in ops]
    if verb == "query":
        what, keys = ops
        if what == "pending_unit":
            return [(key, units[key].session.open_timeunit) for key in keys]
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
    """Run one verb and wrap the outcome as an ``("ok"|"error", ...)`` reply.

    An error reply's payload is ``(error, closed)``: ``error`` is the
    ``(exception, type name, message, traceback)`` tuple
    :func:`revive_exception` takes, and ``closed``, for an ``ingest``, the
    reply entries of what its ops closed before the error (else ``[]``).
    """
    try:
        _maybe_worker_fault(worker_id, verb)
        return ("ok", worker_handle(units, verb, ops))
    except BaseException as exc:  # noqa: BLE001 - forwarded to coordinator
        closed = []
        if verb == "ingest":
            closed = _drained(units, [key for key, _columns, _segments in ops])
        error = (
            transportable(exc),
            type(exc).__name__,
            str(exc),
            traceback.format_exc(),
        )
        return ("error", (error, closed))


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
