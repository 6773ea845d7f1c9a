"""Multi-tenant session management: lazy activation, LRU eviction, resume.

The daemon may be configured with (or accumulate checkpoints for) thousands
of tenants while only a working set is hot at any moment.
:class:`SessionManager` keeps sessions cheap:

* **Lazy activation** — a tenant's
  :class:`~repro.engine.session.DetectionSession` is materialized on first
  touch: from its latest checkpoint when one exists (crash recovery and
  re-activation share one code path), else fresh from its
  :class:`~repro.service.config.TenantSpec`.
* **LRU eviction-to-checkpoint** — when ``max_active`` is exceeded, the
  least-recently-used session is checkpointed (atomically, pending counts
  and all) and dropped.  Because checkpoint resume is bit-identical, an
  evicted-and-reactivated tenant produces exactly the detections of one that
  stayed resident; eviction is purely a memory decision.
* **Rolling/final checkpoints** — :meth:`checkpoint_all` persists every
  active session; it is driven by the daemon's timer, the ``POST
  /checkpoint`` barrier and graceful shutdown.  Checkpoints never close the
  pending timeunit, so cadence does not affect detections.

All public methods are thread-safe behind one re-entrant lock: the ingest
worker thread mutates sessions while the asyncio front end reads metrics and
activates tenants for queries.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.core.results import TimeunitResult
from repro.engine.hooks import EngineObserver
from repro.engine.session import DetectionSession
from repro.exceptions import CheckpointError, CheckpointReadError, ConfigurationError
from repro.io.checkpoint import (
    config_to_dict,
    load_session_checkpoint_state,
    retained_checkpoint_path,
    save_session_checkpoint_rolling,
)
from repro.service.config import TenantSpec, validate_tenant_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.streaming.batch import RecordBatch

CHECKPOINT_SUFFIX = ".ckpt.json"


class SessionManager:
    """Owns every tenant session of one daemon process.

    Parameters
    ----------
    specs:
        Tenant specifications for fresh starts.
    checkpoint_dir:
        Directory of per-tenant checkpoint files
        (``<checkpoint_dir>/<tenant>.ckpt.json``); created if missing.
        Tenants with a checkpoint but no spec (e.g. after a config change)
        remain loadable — checkpoints are self-contained.
    max_active:
        LRU cap on materialized sessions; ``None`` = unlimited.
    observers:
        Lifecycle observers (alert sinks, counters) subscribed to every
        session on activation — fresh or resumed.
    checkpoint_retention:
        Rolling checkpoints kept per tenant (the fresh primary plus up to
        ``checkpoint_retention - 1`` predecessors at ``.1``, ``.2``, ...).
        On activation a corrupt newest checkpoint is quarantined
        (``.corrupt`` rename) and the newest valid predecessor loads
        instead, so one torn write never strands a tenant.
    """

    def __init__(
        self,
        specs: Iterable[TenantSpec],
        checkpoint_dir: "str | Path",
        max_active: int | None = None,
        observers: Sequence[EngineObserver] = (),
        checkpoint_retention: int = 3,
    ):
        self._specs: dict[str, TenantSpec] = {}
        for spec in specs:
            if spec.name in self._specs:
                raise ConfigurationError(f"duplicate tenant spec {spec.name!r}")
            self._specs[spec.name] = spec
        if max_active is not None and max_active < 1:
            raise ConfigurationError("max_active must be >= 1 or None")
        if int(checkpoint_retention) < 1:
            raise ConfigurationError("checkpoint_retention must be >= 1")
        self.checkpoint_dir = Path(checkpoint_dir)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.max_active = max_active
        self.checkpoint_retention = int(checkpoint_retention)
        self._observers = list(observers)
        self._active: "OrderedDict[str, DetectionSession]" = OrderedDict()
        self._lock = threading.RLock()
        # Process-lifetime counters (survive eviction, not restarts).
        self.activations_total = 0
        self.resumes_total = 0
        self.fresh_starts_total = 0
        self.evictions_total = 0
        self.reconfigures_total = 0
        self.shadows_started_total = 0
        self.shadows_stopped_total = 0
        self.shadows_promoted_total = 0
        self.checkpoints_written_total = 0
        self.checkpoint_fallbacks_total = 0
        self.checkpoint_write_failures_total = 0
        self.last_checkpoint_unix: float | None = None
        self.last_checkpoint_error: str | None = None
        self.last_checkpoint_fallback: dict[str, Any] | None = None
        self._records_ingested: dict[str, int] = {}
        self._units_closed: dict[str, int] = {}
        self._anomalies_total: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Tenant inventory
    # ------------------------------------------------------------------
    def checkpoint_path(self, name: str) -> Path:
        validate_tenant_name(name)
        return self.checkpoint_dir / f"{name}{CHECKPOINT_SUFFIX}"

    def retained_checkpoint_paths(self, name: str) -> list[Path]:
        """Existing checkpoints for ``name``, newest first (primary, .1, ...)."""
        primary = self.checkpoint_path(name)
        paths = []
        for age in range(self.checkpoint_retention + 1):
            candidate = retained_checkpoint_path(primary, age)
            if candidate.exists():
                paths.append(candidate)
        return paths

    def has_checkpoint(self, name: str) -> bool:
        return bool(self.retained_checkpoint_paths(name))

    def known_tenants(self) -> list[str]:
        """Configured tenants plus tenants that left a checkpoint behind."""
        with self._lock:
            names = set(self._specs)
            # Retained predecessors (``.1``, ``.2``, ...) keep a tenant
            # known even while its primary is quarantined as corrupt.
            for path in self.checkpoint_dir.glob(f"*{CHECKPOINT_SUFFIX}*"):
                stem, _, tail = path.name.partition(CHECKPOINT_SUFFIX)
                if tail == "" or tail.lstrip(".").isdigit():
                    names.add(stem)
            return sorted(names)

    def active_tenants(self) -> list[str]:
        with self._lock:
            return list(self._active)

    def active_count(self) -> int:
        """Number of materialized sessions — deliberately lock-free.

        ``/healthz`` calls this while the ingest thread may be holding the
        manager lock through a multi-second worker recovery; a ``len`` on
        the dict is atomic and never blocks the probe.
        """
        return len(self._active)

    def is_known(self, name: str) -> bool:
        """Whether ``name`` is configured or left a checkpoint — lock-free.

        The front ends ask this on the event-loop thread for every ingest
        request, while the worker thread holds the manager lock for a whole
        batch close (or a multi-second worker recovery); waiting for it
        would park the loop, ``/healthz`` included.  Nothing here needs the
        lock: ``_specs`` is written only in ``__init__`` and
        :meth:`has_checkpoint` only stats files.
        """
        return name in self._specs or self.has_checkpoint(name)

    # ------------------------------------------------------------------
    # Activation / eviction
    # ------------------------------------------------------------------
    def _quarantine(self, path: Path, error: CheckpointReadError) -> None:
        """Move a corrupt checkpoint aside (``.corrupt``) and record the event."""
        quarantined = path.with_name(f"{path.name}.corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:  # pragma: no cover - racing cleanup
            pass
        self.checkpoint_fallbacks_total += 1
        self.last_checkpoint_fallback = {
            "path": str(path),
            "quarantined_as": str(quarantined),
            "error": str(error),
            "unix": time.time(),
        }

    def _load_with_fallback(self, name: str, sharding) -> "DetectionSession | None":
        """Load the newest *valid* retained checkpoint, quarantining corrupt ones.

        Walks primary → ``.1`` → ``.2`` ... newest first.  A file that fails
        to parse (torn write, bit rot) is renamed to ``.corrupt`` and counted
        in ``checkpoint_fallbacks_total``; the walk continues to the next
        predecessor.  Returns ``None`` when no checkpoint exists at all;
        raises the *first* :class:`CheckpointReadError` when every retained
        copy is corrupt and no spec can cover a fresh start.
        """
        first_error: "CheckpointReadError | None" = None
        for path in self.retained_checkpoint_paths(name):
            try:
                if sharding is not None:
                    from repro.service.sharded_adapter import ShardedSessionAdapter

                    return ShardedSessionAdapter.from_session_state(
                        load_session_checkpoint_state(path), sharding
                    )
                return DetectionSession.load_checkpoint(path)
            except CheckpointReadError as exc:
                if first_error is None:
                    first_error = exc
                self._quarantine(path, exc)
        if first_error is not None and name not in self._specs:
            raise first_error
        return None

    def session(self, name: str) -> DetectionSession:
        """The tenant's live session; activates (resume or fresh) on demand."""
        with self._lock:
            session = self._active.get(name)
            if session is not None:
                self._active.move_to_end(name)
                return session
            spec = self._specs.get(name)
            sharding = None if spec is None else spec.sharding
            session = self._load_with_fallback(name, sharding)
            if session is not None:
                self.resumes_total += 1
            elif spec is not None:
                if sharding is not None:
                    from repro.service.sharded_adapter import ShardedSessionAdapter

                    session = ShardedSessionAdapter.from_spec(spec)
                else:
                    session = spec.build_session()
                self.fresh_starts_total += 1
            else:
                raise ConfigurationError(
                    f"unknown tenant {name!r}: no spec configured and no "
                    f"checkpoint in {self.checkpoint_dir}"
                )
            for observer in self._observers:
                session.subscribe(observer)
            self._active[name] = session
            self._active.move_to_end(name)
            self.activations_total += 1
            self._evict_over_cap(keep=name)
            return session

    def _evict_over_cap(self, keep: str) -> None:
        if self.max_active is None:
            return
        while len(self._active) > self.max_active:
            victim = next(name for name in self._active if name != keep)
            self.evict(victim)

    def evict(self, name: str) -> Path:
        """Checkpoint the tenant's session and drop it from memory.

        The checkpoint includes the pending (not yet closed) timeunit counts,
        so a later :meth:`session` call resumes with zero state divergence —
        the eviction/resume round trip is invisible to detections.
        """
        with self._lock:
            try:
                session = self._active.pop(name)
            except KeyError:
                raise ConfigurationError(f"tenant {name!r} is not active") from None
            path = self.checkpoint_path(name)
            save_session_checkpoint_rolling(
                session, path, keep=self.checkpoint_retention
            )
            self.checkpoints_written_total += 1
            self.last_checkpoint_unix = time.time()
            self.evictions_total += 1
            for observer in self._observers:
                session.unsubscribe(observer)
            # Sharded tenants own worker processes; release them on eviction
            # (serial sessions have no close and skip this).
            closer = getattr(session, "close", None)
            if callable(closer):
                closer()
            return path

    # ------------------------------------------------------------------
    # Ingestion / control (called from the worker thread)
    # ------------------------------------------------------------------
    def ingest_batch(self, name: str, batch: "RecordBatch") -> list[TimeunitResult]:
        """Feed one columnar batch to the tenant's session."""
        with self._lock:
            session = self.session(name)
            results = session.ingest_record_batch(batch)
            self._records_ingested[name] = (
                self._records_ingested.get(name, 0) + len(batch)
            )
            self._note_results(name, results)
            return results

    def replay_file(
        self, name: str, path, batch_size: int = 8192
    ) -> dict[str, Any]:
        """Replay a trace file (CSV/JSONL/columnar) into a tenant's session.

        The file-replay twin of the streaming ingest endpoints: batches go
        through :meth:`ingest_batch` (one lock hold per batch, so metrics and
        checkpoints stay live during long replays) and the trailing timeunit
        is left open, exactly like a paused stream.  Columnar files take the
        dense zero-copy path end to end.  Returns a summary document.
        """
        from repro.io import read_trace_batches

        start = time.perf_counter()
        records = 0
        units_closed = 0
        anomalies = 0
        for batch in read_trace_batches(path, batch_size=batch_size):
            results = self.ingest_batch(name, batch)
            records += len(batch)
            units_closed += len(results)
            anomalies += sum(len(result.anomalies) for result in results)
        elapsed = time.perf_counter() - start
        return {
            "tenant": name,
            "path": str(path),
            "records": records,
            "units_closed": units_closed,
            "anomalies": anomalies,
            "seconds": elapsed,
            "records_per_second": records / elapsed if elapsed > 0 else 0.0,
        }

    def flush(self, name: str | None = None) -> dict[str, int]:
        """Close the pending timeunit of one/every *active* session.

        Returns per-tenant counts of timeunits closed.  Flushing is an
        explicit end-of-stream action — eviction and shutdown never flush.
        """
        with self._lock:
            names = list(self._active) if name is None else [name]
            closed: dict[str, int] = {}
            for tenant in names:
                session = self.session(tenant)
                results = session.flush()
                self._note_results(tenant, results)
                closed[tenant] = len(results)
            return closed

    def _note_results(self, name: str, results: Sequence[TimeunitResult]) -> None:
        self._units_closed[name] = self._units_closed.get(name, 0) + len(results)
        anomalies = sum(len(result.anomalies) for result in results)
        if anomalies:
            self._anomalies_total[name] = (
                self._anomalies_total.get(name, 0) + anomalies
            )

    def checkpoint_all(self) -> dict[str, str]:
        """Checkpoint every active session (rolling); tenant -> file path.

        One tenant's write failure (e.g. a full disk) no longer abandons the
        rest of the fleet: every tenant is attempted, failures are counted in
        ``checkpoint_write_failures_total``, and the first error re-raises
        after the sweep so callers (timer loop, ``POST /checkpoint``) still
        see it.  The rolling writer guarantees the tenant's previous
        checkpoint survives any failed attempt intact.
        """
        with self._lock:
            written: dict[str, str] = {}
            first_error: "Exception | None" = None
            for name, session in list(self._active.items()):
                path = self.checkpoint_path(name)
                try:
                    save_session_checkpoint_rolling(
                        session, path, keep=self.checkpoint_retention
                    )
                except (CheckpointError, OSError) as exc:
                    self.checkpoint_write_failures_total += 1
                    self.last_checkpoint_error = f"{name}: {exc}"
                    if first_error is None:
                        first_error = exc
                    continue
                self.checkpoints_written_total += 1
                written[name] = str(path)
            if written:
                self.last_checkpoint_unix = time.time()
            if first_error is not None:
                raise first_error
            return written

    def anomalies(self, name: str) -> list[dict[str, Any]]:
        """All reported anomalies of a tenant (activates it if needed)."""
        with self._lock:
            return [anomaly.to_dict() for anomaly in self.session(name).anomalies]

    # ------------------------------------------------------------------
    # Online reconfiguration / shadow experiments
    # ------------------------------------------------------------------
    def reconfigure(self, name: str, delta: Mapping[str, Any]) -> dict[str, Any]:
        """Apply a JSON config delta to a running session; return the new config.

        Runs on the worker thread (behind the ingest barrier), so the swap
        lands at a deterministic point in the record stream.  Frozen
        structural fields raise :class:`ConfigurationError`.
        """
        from repro.engine.reconfig import config_with_updates

        with self._lock:
            session = self.session(name)
            new_config = config_with_updates(session.config, delta)
            session.reconfigure(new_config)
            self.reconfigures_total += 1
            return config_to_dict(session.config)

    def start_shadow(self, name: str, delta: Mapping[str, Any]) -> dict[str, Any]:
        """Start a shadow experiment under ``delta`` applied to the live config."""
        from repro.engine.reconfig import config_with_updates

        with self._lock:
            session = self.session(name)
            candidate = config_with_updates(session.config, delta)
            session.start_shadow(candidate)
            self.shadows_started_total += 1
            return session.shadow_report()

    def stop_shadow(self, name: str) -> dict[str, Any]:
        with self._lock:
            report = self.session(name).stop_shadow()
            self.shadows_stopped_total += 1
            return report

    def promote_shadow(self, name: str) -> dict[str, Any]:
        """Swap the shadow in as the tenant's primary session state."""
        with self._lock:
            report = self.session(name).promote_shadow()
            self.shadows_promoted_total += 1
            return report

    def shadow_report(self, name: str) -> dict[str, Any]:
        with self._lock:
            return self.session(name).shadow_report()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, Any]:
        with self._lock:
            return {
                "activations_total": self.activations_total,
                "resumes_total": self.resumes_total,
                "fresh_starts_total": self.fresh_starts_total,
                "evictions_total": self.evictions_total,
                "reconfigures_total": self.reconfigures_total,
                "shadows_started_total": self.shadows_started_total,
                "shadows_stopped_total": self.shadows_stopped_total,
                "shadows_promoted_total": self.shadows_promoted_total,
                "shadows_active": sum(
                    1 for session in self._active.values() if session.has_shadow
                ),
                "checkpoints_written_total": self.checkpoints_written_total,
                "checkpoint_fallbacks_total": self.checkpoint_fallbacks_total,
                "checkpoint_write_failures_total": (
                    self.checkpoint_write_failures_total
                ),
                "checkpoint_retention": self.checkpoint_retention,
                "last_checkpoint_unix": self.last_checkpoint_unix,
                "last_checkpoint_error": self.last_checkpoint_error,
                "last_checkpoint_fallback": self.last_checkpoint_fallback,
                "active_sessions": len(self._active),
                "known_tenants": len(self.known_tenants()),
            }

    def degraded_tenants(self) -> list[str]:
        """Tenants whose sharded session is mid-recovery right now.

        Deliberately lock-free: recovery runs on the ingest thread *while it
        holds the manager lock*, and this is exactly when ``/healthz`` needs
        to report degraded mode — taking the lock here would deadlock the
        probe against the recovery it is trying to observe.  Reads a list
        snapshot of the active table plus a boolean attribute, both safe
        against concurrent mutation.
        """
        degraded = []
        for name, session in list(self._active.items()):
            if getattr(session, "recovering", False):
                degraded.append(name)
        return sorted(degraded)

    def recovery_counters(self) -> dict[str, int]:
        """Aggregate worker-recovery counters across active sharded tenants.

        Lock-free for the same reason as :meth:`degraded_tenants`.
        """
        recoveries = 0
        replayed = 0
        for session in list(self._active.values()):
            recoveries += int(getattr(session, "recoveries_total", 0) or 0)
            replayed += int(getattr(session, "replayed_batches_total", 0) or 0)
        return {
            "worker_recoveries_total": recoveries,
            "replayed_batches_total": replayed,
        }

    def tenant_snapshot(self) -> dict[str, dict[str, Any]]:
        """Per-tenant metrics document (the ``tenants`` section of /metrics).

        Active tenants report live session state (units processed, pending
        timeunit, memory proxy, per-stage close timings,
        ``adaptation_stats()``); inactive ones report their ingest counters
        and whether a checkpoint is available for reactivation.
        """
        with self._lock:
            doc: dict[str, dict[str, Any]] = {}
            for name in self.known_tenants():
                session = self._active.get(name)
                entry: dict[str, Any] = {
                    "active": session is not None,
                    "resumable": self.has_checkpoint(name),
                    "records_ingested": self._records_ingested.get(name, 0),
                    "units_closed": self._units_closed.get(name, 0),
                    "anomalies_total": self._anomalies_total.get(name, 0),
                }
                if session is not None:
                    entry.update(
                        units_processed=session.units_processed,
                        pending_unit=session.open_timeunit,
                        anomalies_reported=len(session.anomalies),
                        memory_units=session.memory_units(),
                        stage_seconds=session.stage_seconds(),
                        adaptation_stats=session.adaptation_stats(),
                        close_profile=session.close_profile(),
                        shadow=(
                            session.shadow_report()
                            if session.has_shadow
                            else None
                        ),
                    )
                    # Sharded tenants additionally surface their transport
                    # and shard layout (groups, workers, recoveries).
                    layout = getattr(session, "sharding_info", None)
                    if callable(layout):
                        entry["sharding"] = layout()
                doc[name] = entry
            return doc
