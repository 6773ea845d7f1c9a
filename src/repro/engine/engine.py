"""The detection engine: many sessions, one process, one merged stream.

The paper's evaluation monitors three hierarchies at once — CCD over the
trouble-description dimension, CCD over the network-path dimension, and SCD —
each with its own tree, configuration and detector state.  The seed supported
exactly one tree per process; :class:`DetectionEngine` owns N named
:class:`~repro.engine.session.DetectionSession` objects and routes a merged
record stream to them by a *stream key* selector.

Routing
-------
``stream_key(record)`` maps each record to a session name.  The default
selector reads ``record.attributes["stream"]``; when the engine has exactly
one session, unkeyed records fall through to it, so single-hierarchy streams
need no tagging.  Records whose key matches no session follow the
``unknown_stream`` policy (``"raise"`` or ``"drop"``).

Ingestion
---------
One path: :meth:`ingest_record_batch` partitions a
:class:`~repro.streaming.batch.RecordBatch` by stream key in a single pass and
hands each session its part; :meth:`process_batches` loops it over an
iterator and flushes.  The record forms are adapters over those two — a
record is a batch of one (:meth:`ingest_record`), a record list one batch
(:meth:`ingest_batch`), and a record stream is chunked into batches
(:meth:`process_stream`).  All but :meth:`ingest_record` return the closed
timeunit results grouped by session name.

Checkpointing
-------------
:meth:`save_checkpoint` / :meth:`load_checkpoint` persist and restore every
session's algorithm, forecaster, clock and report state as one
:mod:`repro.io.checkpoint` file, so a restarted process resumes mid-stream
with identical subsequent detections.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Collection, Iterable, Mapping

from repro.core.config import TiresiasConfig
from repro.core.detector import Anomaly
from repro.core.results import TimeunitResult
from repro.engine.hooks import EngineObserver
from repro.engine.session import DetectionSession
from repro.exceptions import ConfigurationError, StreamError
from repro.hierarchy.tree import HierarchyTree
from repro.io.checkpoint import check_header, checkpoint_document, read_json, write_json
from repro.streaming.batch import STREAM_BATCH_SIZE, RecordBatch, iter_record_batches
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord

StreamKey = Callable[[OperationalRecord], "str | None"]

#: Valid values for ``DetectionEngine(unknown_stream=...)``.
UNKNOWN_STREAM_POLICIES: frozenset[str] = frozenset({"raise", "drop"})


def attribute_stream_key(record: OperationalRecord) -> str | None:
    """Default stream selector: the record's ``"stream"`` attribute."""
    return record.attributes.get("stream")


def route_batch(
    batch: RecordBatch,
    stream_key: StreamKey,
    names: Collection[str],
    unknown_stream: str,
) -> list[tuple[str, RecordBatch]]:
    """THE router of both engines: ``batch`` split by stream key into
    ``(session name, part)`` pairs, keys in first-appearance order, each part
    in stream order.

    An unkeyed record goes to a lone session; a key that names no session is
    dropped under ``unknown_stream="drop"`` and raises :class:`StreamError`
    under ``"raise"`` — before any pair is returned, so the whole batch is
    refused.  The default selector is read off the attribute column without
    building a record; a custom one is applied row by row.
    """
    selector = None if stream_key is attribute_stream_key else stream_key
    routed = []
    for key, part in batch.partition_by_key(selector):
        if key is None and len(names) == 1:
            key = next(iter(names))
        elif key is None or key not in names:
            if unknown_stream == "drop":
                continue
            raise StreamError(
                f"record at t={float(part.timestamps[0])} routed to unknown "
                f"session {key!r}; registered sessions: {sorted(names)}"
            )
        routed.append((key, part))
    return routed


class DetectionEngine:
    """Routes one merged record stream to N named detection sessions.

    Parameters
    ----------
    stream_key:
        Callable mapping a record to the name of the session that should
        ingest it (``None`` = no explicit key).  Defaults to
        :func:`attribute_stream_key`.
    unknown_stream:
        Policy for records whose key names no session: ``"raise"`` (default)
        or ``"drop"``.
    """

    def __init__(
        self,
        stream_key: StreamKey | None = None,
        unknown_stream: str = "raise",
    ):
        if unknown_stream not in UNKNOWN_STREAM_POLICIES:
            raise ConfigurationError(
                f"unknown_stream must be one of {sorted(UNKNOWN_STREAM_POLICIES)}, "
                f"got {unknown_stream!r}"
            )
        self.stream_key = stream_key or attribute_stream_key
        self.unknown_stream = unknown_stream
        self._sessions: dict[str, DetectionSession] = {}
        self._observers: list[EngineObserver] = []

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------
    def add_session(
        self,
        name: str,
        tree: HierarchyTree,
        config: TiresiasConfig,
        algorithm: str = "ada",
        clock: SimulationClock | None = None,
        warmup_units: int | None = None,
        max_results: int | None = None,
    ) -> DetectionSession:
        """Create and register a new named session; returns it."""
        session = DetectionSession(
            tree,
            config,
            algorithm=algorithm,
            clock=clock,
            warmup_units=warmup_units,
            name=name,
            max_results=max_results,
        )
        return self.attach_session(session)

    def attach_session(self, session: DetectionSession) -> DetectionSession:
        """Register an existing session (e.g. one restored from a checkpoint)."""
        if session.name in self._sessions:
            raise ConfigurationError(
                f"a session named {session.name!r} is already registered"
            )
        for observer in self._observers:
            session.subscribe(observer)
        self._sessions[session.name] = session
        return session

    def session(self, name: str) -> DetectionSession:
        """The session registered under ``name``."""
        try:
            return self._sessions[name]
        except KeyError:
            raise ConfigurationError(
                f"no session named {name!r}; registered sessions: "
                f"{sorted(self._sessions)}"
            ) from None

    @property
    def sessions(self) -> dict[str, DetectionSession]:
        """Registered sessions by name (a copy; mutate via add/remove)."""
        return dict(self._sessions)

    @property
    def session_names(self) -> tuple[str, ...]:
        return tuple(self._sessions)

    def __contains__(self, name: str) -> bool:
        return name in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def subscribe(self, observer: EngineObserver) -> EngineObserver:
        """Attach an observer to every current and future session."""
        self._observers.append(observer)
        for session in self._sessions.values():
            session.subscribe(observer)
        return observer

    def unsubscribe(self, observer: EngineObserver) -> None:
        """Detach an engine-level observer from all sessions."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass
        for session in self._sessions.values():
            session.unsubscribe(observer)

    # ------------------------------------------------------------------
    # Online reconfiguration and shadow experiments
    # ------------------------------------------------------------------
    def reconfigure_session(
        self, name: str, new_config: TiresiasConfig
    ) -> DetectionSession:
        """Hot-swap one session's config
        (:meth:`DetectionSession.reconfigure`)."""
        return self.session(name).reconfigure(new_config)

    def start_shadow(
        self,
        name: str,
        candidate_config: TiresiasConfig,
        shadow_name: "str | None" = None,
    ) -> DetectionSession:
        """Start a shadow experiment on one session.  Fan-out is free at the
        engine level: every routed partition of a shared
        :class:`RecordBatch` reaches the session's shadow zero-copy through
        :meth:`DetectionSession.ingest_record_batch`."""
        return self.session(name).start_shadow(candidate_config, name=shadow_name)

    def stop_shadow(self, name: str) -> dict[str, Any]:
        return self.session(name).stop_shadow()

    def promote_shadow(self, name: str) -> dict[str, Any]:
        return self.session(name).promote_shadow()

    def shadow_report(self, name: str) -> dict[str, Any]:
        return self.session(name).shadow_report()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest_record(self, record: OperationalRecord) -> list[TimeunitResult]:
        """Route one record, a batch of one; returns results of timeunits it
        closed."""
        return list(
            chain.from_iterable(
                self.ingest_record_batch(RecordBatch.from_records((record,))).values()
            )
        )

    def ingest_batch(
        self, records: Iterable[OperationalRecord]
    ) -> dict[str, list[TimeunitResult]]:
        """Route records as one batch; closed results grouped by session name."""
        return self.ingest_record_batch(RecordBatch.from_records(records))

    def ingest_record_batch(
        self, batch: RecordBatch
    ) -> dict[str, list[TimeunitResult]]:
        """Route a columnar batch; closed results grouped by session name.

        The batch is partitioned by stream key in one pass
        (:meth:`RecordBatch.partition_by_key`) and each partition is ingested
        through the session's batch path, session by session in the order
        their keys first appear (observer events follow that order).
        Partitions preserve the per-session record order of the merged
        stream, so every session sees its own sub-stream and produces the
        detections it would produce on its own.  With the default attribute
        selector an untagged single-session batch is forwarded whole, without
        touching a single row.

        Every partition's key is resolved *before* any record is ingested,
        so an unknown key under the ``"raise"`` policy rejects the whole
        batch with no side effects.
        """
        closed: dict[str, list[TimeunitResult]] = {
            name: [] for name in self._sessions
        }
        for name, part in route_batch(
            batch, self.stream_key, self._sessions, self.unknown_stream
        ):
            closed[name].extend(self._sessions[name].ingest_record_batch(part))
        return closed

    def process_stream(
        self, records: Iterable[OperationalRecord]
    ) -> dict[str, list[TimeunitResult]]:
        """Consume a whole merged stream in chunks of
        :data:`~repro.streaming.batch.STREAM_BATCH_SIZE` records
        (:meth:`process_batches`), then flush every session."""
        return self.process_batches(iter_record_batches(records, STREAM_BATCH_SIZE))

    def process_batches(
        self, batches: Iterable[RecordBatch]
    ) -> dict[str, list[TimeunitResult]]:
        """Consume a stream of columnar batches, then flush every session.
        When the iterator raises, what it yielded before stays ingested and
        nothing is flushed."""
        closed: dict[str, list[TimeunitResult]] = {
            name: [] for name in self._sessions
        }
        for batch in batches:
            for name, results in self.ingest_record_batch(batch).items():
                closed[name].extend(results)
        for name, results in self.flush().items():
            closed[name].extend(results)
        return closed

    def flush(self) -> dict[str, list[TimeunitResult]]:
        """Close the accumulating timeunit of every session."""
        return {name: session.flush() for name, session in self._sessions.items()}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def anomalies(self) -> dict[str, list[Anomaly]]:
        """All reported anomalies, grouped by session name."""
        return {name: session.anomalies for name, session in self._sessions.items()}

    def units_processed(self) -> dict[str, int]:
        return {
            name: session.units_processed for name, session in self._sessions.items()
        }

    def memory_units(self) -> int:
        """Total memory cost proxy across all sessions."""
        return sum(session.memory_units() for session in self._sessions.values())

    def adaptation_stats(self) -> dict[str, dict[str, Any]]:
        """Per-session delta-adaptation counters, keyed by session name.

        Mirrors :meth:`ShardedDetectionEngine.adaptation_stats
        <repro.engine.sharded.ShardedDetectionEngine.adaptation_stats>` so
        metrics consumers (the service layer's ``/metrics`` endpoint) read
        both engines identically.
        """
        return {
            name: session.adaptation_stats()
            for name, session in self._sessions.items()
        }

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot of the engine (policy + every session's state)."""
        return checkpoint_document(
            [session.state_dict() for session in self._sessions.values()],
            engine={"unknown_stream": self.unknown_stream},
        )

    @classmethod
    def from_state_dict(
        cls, state: Mapping[str, Any], stream_key: StreamKey | None = None
    ) -> "DetectionEngine":
        """Rebuild an engine from a snapshot (selectors are not serializable,
        so pass ``stream_key`` again when a custom one was used)."""
        check_header(state)
        engine = cls(
            stream_key=stream_key,
            unknown_stream=str(state.get("engine", {}).get("unknown_stream", "raise")),
        )
        for session_state in state["sessions"]:
            engine.attach_session(DetectionSession.from_state_dict(session_state))
        return engine

    def save_checkpoint(self, path: Any) -> None:
        """Persist the engine state as a JSON checkpoint file."""
        write_json(self.state_dict(), path)

    @classmethod
    def load_checkpoint(
        cls, path: Any, stream_key: StreamKey | None = None
    ) -> "DetectionEngine":
        """Restore an engine from a file written by :meth:`save_checkpoint`."""
        return cls.from_state_dict(read_json(path), stream_key=stream_key)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DetectionEngine(sessions={sorted(self._sessions)})"
