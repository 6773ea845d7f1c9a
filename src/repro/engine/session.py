"""One detection session: a (hierarchy, config, algorithm) triple run online.

A :class:`DetectionSession` is the paper's online system (Fig. 3, Steps 1-6)
for one hierarchy: it classifies records into timeunits, hands each closed
timeunit to the tracking algorithm (hierarchy update, series adaptation,
forecast and detection), suppresses alarms during warm-up and keeps the
report store.  It is built for composition:

* it ingests through one path, :meth:`DetectionSession.ingest_record_batch`:
  a record is a batch of one, a record list one batch, and a record stream
  is chunked into batches (:func:`~repro.streaming.batch.iter_record_batches`);
  whatever the algorithm, a batch closes its timeunits from one count matrix
  and one hierarchy sweep (:class:`~repro.core.tracking.HierarchyTracker`);
* the open timeunit is one list of node-id arrays, its records in arrival
  order, and every close is a swept row's: a batch's matrix row when a run
  of the batch lands in the unit, a one-row sweep of the held ids otherwise
  (``flush``, ``advance_to``, a unit the next batch only passes);
* the tracking algorithm is one of the paper's two, by name
  (:data:`repro.core.registry.ALGORITHMS`);
* lifecycle observers (:mod:`repro.engine.hooks`) are notified of closed
  timeunits, reported anomalies, and warm-up completion as they happen;
* the out-of-order policy of the config decides what happens to records whose
  timeunit already closed (the seed silently counted them into the *current*
  timeunit);
* the full mutable state serializes to / restores from a JSON-safe dict
  (:meth:`state_dict` / :meth:`from_state_dict`), written to and read from
  :mod:`repro.io.checkpoint` files.

A session runs on its own for one hierarchy; several run concurrently inside
one :class:`~repro.engine.engine.DetectionEngine`.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Mapping

import numpy as np

from repro._types import CategoryPath, TimeunitIndex, Weight
from repro.core.config import TiresiasConfig
from repro.core.detector import Anomaly
from repro.core.registry import create_algorithm
from repro.core.reporting import AnomalyReportStore
from repro.core.results import TimeunitResult
from repro.engine.hooks import EngineObserver, notify_close
from repro.engine.reconfig import reconfigured_state
from repro.engine.shadow import ShadowStateError, ShadowTracker
from repro.exceptions import CheckpointError, ConfigurationError, OutOfOrderRecordError
from repro.hierarchy.tree import HierarchyTree
from repro.io.checkpoint import (
    checkpoint_document,
    clock_from_dict,
    clock_to_dict,
    config_from_dict,
    config_to_dict,
    load_session_checkpoint_state,
    tree_from_dict,
    tree_to_dict,
    write_json,
)
from repro.streaming.batch import STREAM_BATCH_SIZE, RecordBatch, iter_record_batches
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord

#: Most cells one dense count matrix may have (8 MiB of float64): a batch
#: whose closing timeunits need more is ingested in halves.
_DENSE_MATRIX_CELLS = 1 << 20

_NO_IDS = np.zeros(0, dtype=np.intp)
#: Size below which the open unit's id arrays merge (see
#: :meth:`DetectionSession._ingest_batch_dense`).
_HELD_CHUNK = 1024


class DetectionSession:
    """Online anomaly detection over one hierarchical domain.

    Parameters
    ----------
    tree:
        The hierarchical domain the record categories are drawn from.
    config:
        Detector configuration (θ, RT/DT, Δ, ℓ, split rule, out-of-order
        policy, ...).
    algorithm:
        Name of the tracking algorithm, ``"ada"`` or ``"sta"``
        (:data:`repro.core.registry.ALGORITHMS`).
    clock:
        Simulation clock; defaults to one with Δ from the config and epoch 0.
    warmup_units:
        Number of initial timeunits during which anomalies are suppressed
        while the forecasting models accumulate history.  Defaults to the
        forecasting model's minimum history.
    name:
        Session name, used by the engine for routing and by observers to
        identify the source.
    max_results:
        Maximum number of :class:`TimeunitResult` objects retained in
        :attr:`results` (oldest dropped first).  ``None`` (default) keeps
        everything, which suits finite replays and the evaluation harness;
        always-on deployments should bound it and consume results through
        the ``on_timeunit_closed`` hook instead.
    """

    def __init__(
        self,
        tree: HierarchyTree,
        config: TiresiasConfig,
        algorithm: str = "ada",
        clock: SimulationClock | None = None,
        warmup_units: int | None = None,
        name: str = "default",
        max_results: int | None = None,
    ):
        self.name = name
        self.tree = tree
        self.config = config
        self.clock = clock or SimulationClock(delta=config.delta_seconds)
        if abs(self.clock.delta - config.delta_seconds) > 1e-9:
            raise ConfigurationError(
                "the clock's timeunit width must match config.delta_seconds"
            )
        self.algorithm = create_algorithm(algorithm, tree, config)
        self.algorithm_name = algorithm
        self.warmup_units = (
            config.forecast.min_history if warmup_units is None else warmup_units
        )
        if self.warmup_units < 0:
            raise ConfigurationError("warmup_units must be >= 0")
        if max_results is not None and max_results < 0:
            raise ConfigurationError("max_results must be >= 0 or None")
        self.max_results = max_results
        #: When False, anomalies skip the local report store (observers and
        #: returned results still carry them).  The sharded engine clears it
        #: on subtree-shard sessions, whose reports live merged on the
        #: coordinator — retaining them worker-side would only grow memory.
        self.retain_reports = True
        self.reports = AnomalyReportStore()
        self.results: list[TimeunitResult] = []
        self._units_processed = 0
        #: The open timeunit: the node ids of its records in arrival order,
        #: as a list of arrays (see :meth:`_ingest_batch_dense`).
        self._open_ids: list = []
        self._pending_unit: TimeunitIndex | None = None
        #: Whether ``on_warmup_complete`` has fired (set by
        #: :func:`~repro.engine.hooks.notify_close`).
        self.warmup_announced = False
        self._observers: list[EngineObserver] = []
        self.reading_seconds = 0.0
        #: Dense columnar ingest: the last batch dictionary and its node-id
        #: map (columnar readers share one dictionary per file).
        self._dense_dict: tuple | None = None
        #: Shadow experiment: a cloned session running a candidate config
        #: against the identical stream (see :meth:`start_shadow`), plus the
        #: detection-diff tracker.  Both checkpoint with the session.
        self._shadow: "DetectionSession | None" = None
        self._shadow_tracker: "ShadowTracker | None" = None

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def subscribe(self, observer: EngineObserver) -> EngineObserver:
        """Attach a lifecycle observer; returns it for chaining."""
        self._observers.append(observer)
        return observer

    def unsubscribe(self, observer: EngineObserver) -> None:
        """Detach a previously subscribed observer (no-op if absent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Online ingestion
    # ------------------------------------------------------------------
    def process_stream(
        self, records: Iterable[OperationalRecord]
    ) -> list[TimeunitResult]:
        """Consume a time-ordered record stream in chunks of
        :data:`~repro.streaming.batch.STREAM_BATCH_SIZE` records
        (:meth:`process_batches`); returns per-timeunit results."""
        return self.process_batches(iter_record_batches(records, STREAM_BATCH_SIZE))

    def ingest_record(self, record: OperationalRecord) -> list[TimeunitResult]:
        """Add one record, a batch of one; returns results for any timeunits
        that closed."""
        return self.ingest_record_batch(RecordBatch.from_records((record,)))

    def ingest_batch(
        self, records: Iterable[OperationalRecord]
    ) -> list[TimeunitResult]:
        """Add records as one batch; returns results of all timeunits that
        closed."""
        return self.ingest_record_batch(RecordBatch.from_records(records))

    def _admit(
        self,
        unit: TimeunitIndex,
        timestamp: float,
        open_unit: "TimeunitIndex | None",
    ) -> "TimeunitIndex | None":
        """THE out-of-order policy: the timeunit a record of ``unit`` counts
        into while ``open_unit`` is the open one (``None``: nothing ingested
        yet) — ``None`` when it is dropped.  Only a record behind the open
        timeunit is late; ``"clamp"`` counts it into the open timeunit and
        ``"raise"`` refuses it with :class:`OutOfOrderRecordError`.
        """
        if open_unit is None or unit >= open_unit:
            return unit
        policy = self.config.out_of_order_policy
        if policy == "drop":
            return None
        if policy == "raise":
            raise OutOfOrderRecordError(
                timestamp, self.clock.timeunit_start(open_unit)
            )
        return open_unit

    def ingest_record_batch(self, batch: RecordBatch) -> list[TimeunitResult]:
        """Add a columnar batch; returns results of all timeunits that closed.

        Every algorithm closes the batch's timeunits together
        (:meth:`_ingest_batch_dense`).  The batch is read as *runs* in
        arrival order and :meth:`_admit` is asked about each, so the
        out-of-order policy fires for the same records wherever the stream
        is cut into batches — a batch spanning an already-closed timeunit
        splits, and only the late run is dropped / clamped / raised on, with
        everything before it ingested.  Detections do not depend on the cut.

        A running shadow session (:meth:`start_shadow`) ingests the *same*
        :class:`RecordBatch` object right after the primary — zero-copy
        fan-out, the batch columns are never duplicated.
        """
        closed = self._ingest_batch_dense(batch)
        if self._shadow is not None:
            self._mirror(closed, lambda shadow: shadow.ingest_record_batch(batch))
        return closed

    def _dense_mapping(self, dictionary):
        """Node id per code of a batch dictionary (``num_node_ids``, the
        count matrix's spare column: not in the tree).

        Cached by dictionary object identity — a columnar file yields one
        shared dictionary for every batch, so the map is built once per file.
        A reader whose codebook is still growing hands over a longer list
        whenever new categories appeared (see
        :class:`~repro.streaming.batch.ColumnAccumulator`); when the cached
        dictionary is a prefix of the new one only the new entries are
        mapped.
        """
        cached = self._dense_dict
        if cached is not None:
            known, id_map = cached
            if known is dictionary:
                return id_map
            if dictionary[: len(known)] == known:
                tail = dictionary[len(known) :]
                if tail:
                    id_map = np.concatenate([id_map, self._node_ids(tail)])
                self._dense_dict = (dictionary, id_map)
                return id_map
        id_map = self._node_ids(dictionary)
        self._dense_dict = (dictionary, id_map)
        return id_map

    def _node_ids(self, paths):
        ids = self.algorithm.dictionary_node_ids(paths)
        ids[ids < 0] = self.algorithm.num_node_ids
        return ids

    def _ingest_batch_dense(self, batch: RecordBatch) -> list[TimeunitResult]:
        """Code-column ingest: the timeunits a batch closes, closed together.

        Everything that depends only on a timeunit's own counts is hoisted
        out of the per-unit loop: the records of every timeunit that fully
        closes *within this call* land in one ``(units, node ids)`` count
        matrix and the algorithm sweeps it once (raw weights, modified
        weights and heavy masks of every row,
        :meth:`~repro.core.tracking.HierarchyTracker.sweep_timeunits`).  The
        units then close in order, each from its row, because what remains
        *does* depend on the previous unit's state (forecaster recurrences,
        retained weight tables, split statistics, the adaptation plan) and
        observers see one closed unit at a time.

        The matrix is one ``bincount`` over a ``(closing + 1, width + 1)``
        grid: runs of the still-open unit and dropped runs count into the
        spare last row, codes outside the tree into the spare last column,
        and both are sliced off before the float conversion.  The open
        unit is held as node ids (:attr:`_open_ids`): the batch that closes
        it counts them into its row 0, and a unit no run of the batch lands
        in closes from a one-row count of them (:meth:`_close_pending`).
        This batch's runs of the unit it leaves open are appended as
        gathers ``id_map[codes]`` — new arrays, never views of a code buffer
        a transport may reuse.  When the policy refuses a late run, the rows
        before it are ingested first — the exception leaves the session
        where a batch cut just before the late run would have.
        """
        runs = batch.timeunit_runs(self.clock)
        if not runs:
            return []
        # Pre-pass: the effective timeunit of every run under the policy, as
        # a row number (-1: dropped) into ``units``; no state touched.
        simulated = self._pending_unit
        units: list[TimeunitIndex] = []
        run_rows: list[int] = []
        for unit, start, _ in runs:
            try:
                unit = self._admit(unit, float(batch.timestamps[start]), simulated)
            except OutOfOrderRecordError:
                self._ingest_batch_dense(batch.slice(0, start))
                raise
            if unit is None:
                run_rows.append(-1)
                continue
            simulated = unit
            if not units or units[-1] != simulated:
                units.append(simulated)
            run_rows.append(len(units) - 1)
        if not units:
            return []  # every run was dropped
        # ``simulated`` moves only on a run that is kept, so the last row is
        # the unit that stays open; the rows before it close in this call.
        last_unit = simulated
        closing = units[:-1]
        spare = len(closing)  # the open unit's row, dropped runs' too
        algorithm = self.algorithm
        width = algorithm.num_node_ids
        if spare > 1 and spare * width > _DENSE_MATRIX_CELLS:
            # Bounded memory whatever the batch spans: ingesting two halves
            # is ingesting the whole.
            middle = runs[len(runs) // 2][1]
            return [
                *self._ingest_batch_dense(batch.slice(0, middle)),
                *self._ingest_batch_dense(batch.slice(middle, len(batch))),
            ]
        codes = batch.category_codes
        id_map = self._dense_mapping(batch.code_dictionary)
        if self._pending_unit is None:
            self._pending_unit = units[0]  # a first run is never late
        swept = []
        if closing:
            grid = width + 1
            keys = np.repeat(
                [grid * (spare if row < 0 else row) for row in run_rows],
                [stop - start for _, start, stop in runs],
            )
            keys += id_map[codes]
            if closing[0] == self._pending_unit:
                keys = np.concatenate([*self._open_ids, keys])  # row 0
            counts = np.bincount(keys, minlength=(spare + 1) * grid)
            swept = algorithm.sweep_timeunits(
                counts.reshape(spare + 1, grid)[:-1, :-1].astype(np.float64)
            )
        closed: list[TimeunitResult] = []
        row = 0
        while self._pending_unit < last_unit:
            if row < len(closing) and closing[row] == self._pending_unit:
                closed.append(self._close_pending(swept[row]))
                row += 1
            else:
                closed.append(self._close_pending())
        held = self._open_ids
        held.extend(
            id_map[codes[start:stop]]
            for (_, start, stop), row in zip(runs, run_rows)
            if row == spare
        )
        # Small arrays merge pairwise, as a binary counter does, into
        # arrays of about _HELD_CHUNK ids: a unit fed one record at a time
        # holds no array object per record, and as only arrays under
        # _HELD_CHUNK ids merge, an id is copied a bounded number of times.
        while len(held) > 1 and len(held[-2]) <= len(held[-1]) < _HELD_CHUNK:
            held[-2:] = [np.concatenate(held[-2:])]
        return closed

    def process_batches(self, batches: Iterable[RecordBatch]) -> list[TimeunitResult]:
        """Consume a stream of columnar batches, then flush.  Observers fire
        as each batch closes its timeunits; when the iterator raises, what
        it yielded before stays ingested and nothing is flushed."""
        produced: list[TimeunitResult] = []
        start = time.perf_counter()
        for batch in batches:
            self.reading_seconds += time.perf_counter() - start
            produced.extend(self.ingest_record_batch(batch))
            start = time.perf_counter()
        self.reading_seconds += time.perf_counter() - start
        produced.extend(self.flush())
        return produced

    def advance_to(self, unit: TimeunitIndex) -> list[TimeunitResult]:
        """Advance the open timeunit to ``unit``, closing everything before it.

        A session that has not ingested anything yet is *anchored* at ``unit``
        (no timeunits close); otherwise every pending timeunit strictly before
        ``unit`` closes in order, producing its result.  Timeunits at or after
        ``unit`` are untouched, so advancing to the current pending unit is a
        no-op.  This is the clock-synchronization primitive of the sharded
        engine: subtree shards that received no records while the merged
        stream moved on must still close their (empty) timeunits exactly as
        the serial session would have.
        """
        unit = int(unit)
        closed = self._advance_to_primary(unit)
        if self._shadow is not None:
            self._mirror(closed, lambda shadow: shadow.advance_to(unit))
        return closed

    def _advance_to_primary(self, unit: int) -> list[TimeunitResult]:
        if self._pending_unit is None:
            self._pending_unit = unit
            return []
        closed: list[TimeunitResult] = []
        while self._pending_unit < unit:
            closed.append(self._close_pending())
        return closed

    def flush(self) -> list[TimeunitResult]:
        """Close the currently accumulating timeunit (end of stream)."""
        closed = self._flush_primary()
        if self._shadow is not None:
            self._mirror(closed, lambda shadow: shadow.flush())
        return closed

    def _flush_primary(self) -> list[TimeunitResult]:
        if self._pending_unit is None:
            return []
        return [self._close_pending(final=True)]

    def _close_pending(self, swept=None, final: bool = False) -> TimeunitResult:
        """Close the open timeunit from ``swept``, its row of a batch's sweep
        (which counted :attr:`_open_ids`), or else from a one-row count of
        :attr:`_open_ids`: every close is a swept row's."""
        unit = self._pending_unit
        assert unit is not None
        algorithm = self.algorithm
        if swept is None:
            counts = np.bincount(
                self._open_id_array(), minlength=algorithm.num_node_ids + 1
            )
            (swept,) = algorithm.sweep_timeunits(counts[None, :-1].astype(np.float64))
        self._open_ids = []
        self._pending_unit = None if final else unit + 1
        return self._finish_result(algorithm.close_swept(swept, unit))

    def _open_id_array(self):
        """:attr:`_open_ids` as one array."""
        return np.concatenate([_NO_IDS, *self._open_ids])

    def _pending_state(self) -> list:
        """The open timeunit as checkpoint rows: ``[path, count]`` per node
        in first-appearance order (categories outside the tree left out)."""
        ids, first, counts = np.unique(
            self._open_id_array(), return_index=True, return_counts=True
        )
        order = np.argsort(first)
        keep = order[ids[order] < self.algorithm.num_node_ids]
        paths = self.algorithm.node_paths(ids[keep])
        return [
            [list(path), count] for path, count in zip(paths, counts[keep].tolist())
        ]

    def _load_pending(self, rows) -> None:
        """Restore :attr:`_open_ids` from :meth:`_pending_state` rows: each
        path once, with a positive integer count."""
        counts: dict = {}
        for path, count in rows:
            path = tuple(path)
            if path in counts:
                raise CheckpointError(f"pending: {path!r} is named twice")
            if type(count) is not int or count < 1:
                raise CheckpointError(
                    f"pending: the count of {path!r} is {count!r}, "
                    "not a positive integer"
                )
            counts[path] = count
        if counts:
            self._open_ids = [
                np.repeat(self._node_ids(list(counts)), list(counts.values()))
            ]

    # ------------------------------------------------------------------
    # Timeunit-level interface (used directly by benchmarks)
    # ------------------------------------------------------------------
    def process_timeunit_counts(
        self, counts: dict[CategoryPath, Weight], timeunit: TimeunitIndex | None = None
    ) -> TimeunitResult:
        """Process one timeunit worth of per-leaf counts."""
        return self._finish_result(self.algorithm.process_timeunit(counts, timeunit))

    def _finish_result(self, result: TimeunitResult) -> TimeunitResult:
        """Shared post-close bookkeeping: warm-up, reports, observers."""
        self._units_processed += 1
        if self._units_processed <= self.warmup_units and result.anomalies:
            result = result.without_anomalies()
        if self.retain_reports:
            self.reports.add_many(result.anomalies)
        self.results.append(result)
        if self.max_results is not None and len(self.results) > self.max_results:
            del self.results[: len(self.results) - self.max_results]
        notify_close(self._observers, self, result)
        return result

    # ------------------------------------------------------------------
    # Online reconfiguration
    # ------------------------------------------------------------------
    def reconfigure(self, new_config: TiresiasConfig) -> "DetectionSession":
        """Hot-swap this session's configuration at the timeunit boundary.

        ``new_config`` must be a compatible delta of the current config
        (:func:`repro.engine.reconfig.check_reconfigurable`): thresholds,
        split rule and forecasting parameters may change; the timeunit grid
        (``delta_seconds``/``window_units``) and the tracked-node policy are
        frozen.  When the forecasting configuration changes, every tracked
        node's model is re-seeded from its live actual-value window instead
        of re-warming.  Takes effect at the next timeunit close; clock
        position, pending counts, warm-up bookkeeping, reports and observers
        are untouched, and a running shadow experiment keeps running.
        Returns ``self``.
        """
        state = reconfigured_state(self._primary_state_dict(), new_config)
        self._adopt(DetectionSession._from_state(state, self.tree), full=False)
        return self

    # ------------------------------------------------------------------
    # Shadow experiments
    # ------------------------------------------------------------------
    @property
    def has_shadow(self) -> bool:
        return self._shadow is not None

    @property
    def shadow(self) -> "DetectionSession | None":
        """The running shadow session (None when no experiment is active)."""
        return self._shadow

    def start_shadow(
        self, candidate_config: TiresiasConfig, name: "str | None" = None
    ) -> "DetectionSession":
        """Start a shadow experiment with ``candidate_config``.

        The shadow is a full clone of this session's live state (clock,
        pending counts, forecaster history, reports) placed under the
        candidate config through the checkpoint machinery — exactly the
        state a standalone session restored from this session's checkpoint
        and reconfigured would have.  From now on every ingest call fans out
        to the shadow (same records, zero-copy for columnar batches) and
        detections are diffed per timeunit (:meth:`shadow_report`,
        ``on_shadow_divergence``).  Shadow-side errors are contained and
        counted; they never disturb the primary.  Returns the shadow session.
        """
        if self._shadow is not None:
            raise ShadowStateError(
                f"session {self.name!r} already runs a shadow experiment "
                f"({self._shadow.name!r}); stop or promote it first"
            )
        shadow_state = reconfigured_state(
            self._primary_state_dict(),
            candidate_config,
            name=name or f"{self.name}::shadow",
        )
        self._shadow = DetectionSession._from_state(shadow_state, self.tree)
        self._shadow_tracker = ShadowTracker()
        return self._shadow

    def stop_shadow(self) -> dict[str, Any]:
        """Abandon the shadow experiment; returns the final report."""
        report = self.shadow_report()
        self._shadow = None
        self._shadow_tracker = None
        return report

    def promote_shadow(self) -> dict[str, Any]:
        """Swap the shadow in as primary; returns the final report.

        The shadow has ingested the identical stream, so its clock, pending
        counts and warm-up state are in lockstep — promotion adopts its
        config, algorithm state, reports and results wholesale.  The
        session's name, observers and report-retention policy stay; the
        experiment ends.
        """
        shadow = self._shadow
        report = self.shadow_report()
        self._shadow = None
        self._shadow_tracker = None
        self._adopt(shadow, full=True)
        return report

    def shadow_report(self) -> dict[str, Any]:
        """Agreement document of the running experiment (see
        :meth:`ShadowTracker.report <repro.engine.shadow.ShadowTracker.report>`).
        """
        if self._shadow is None or self._shadow_tracker is None:
            raise ShadowStateError(
                f"session {self.name!r} has no running shadow experiment"
            )
        report: dict[str, Any] = {
            "primary": self.name,
            "shadow": self._shadow.name,
            "primary_config": config_to_dict(self.config),
            "shadow_config": config_to_dict(self._shadow.config),
        }
        report.update(self._shadow_tracker.report())
        return report

    def _mirror(self, primary_closed: list[TimeunitResult], op) -> None:
        """Run one ingest operation on the shadow and diff the closed units.

        Shadow failures are contained: recorded in the tracker (visible in
        ``shadow_report()``), never raised into the primary's ingest path.
        """
        shadow, tracker = self._shadow, self._shadow_tracker
        assert shadow is not None and tracker is not None
        try:
            shadow_closed = op(shadow)
        except Exception as exc:  # noqa: BLE001 - the experiment must not
            tracker.note_error(exc)  # take down live detection
            return
        tracker.observe(self, shadow, primary_closed, shadow_closed, self._observers)

    def _adopt(self, other: "DetectionSession", full: bool) -> None:
        """Take over ``other``'s detection state (reconfigure / promote).

        ``full=False`` adopts only what a config swap rebuilt — config, tree
        and algorithm (clock, pending counts and reports are this session's
        own objects and were passed through the state surgery unchanged).
        ``full=True`` additionally adopts the stream-position and report
        state, which is what promotion needs.  The dense-ingest cache is
        reset either way — it is keyed to the old algorithm instance.
        """
        self.config = other.config
        self.tree = other.tree
        self.algorithm = other.algorithm
        self.algorithm_name = other.algorithm_name
        self._dense_dict = None
        if full:
            self.clock = other.clock
            self.warmup_units = other.warmup_units
            self.max_results = other.max_results
            self._units_processed = other._units_processed
            self.warmup_announced = other.warmup_announced
            self._open_ids = other._open_ids
            self._pending_unit = other._pending_unit
            self.reading_seconds = other.reading_seconds
            self.reports = other.reports
            self.results = other.results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def units_processed(self) -> int:
        return self._units_processed

    @property
    def open_timeunit(self) -> "TimeunitIndex | None":
        """The timeunit records are being counted into (None before the
        first record, and after :meth:`flush`)."""
        return self._pending_unit

    @property
    def anomalies(self) -> list[Anomaly]:
        """All anomalies reported so far (after warm-up)."""
        return self.reports.query()

    def stage_seconds(self) -> dict[str, float]:
        """Per-stage running time, including trace reading (Table III stages)."""
        stages = dict(self.algorithm.stage_seconds)
        stages["reading_traces"] = self.reading_seconds
        return stages

    def adaptation_stats(self) -> dict[str, Any]:
        """The tracking algorithm's adaptation counters.

        For ADA: mode (``delta``), stable-fast-path and planned timeunit
        counts, split/merge operation totals and the time spent in adaptation
        proper (see :meth:`repro.core.ada.ADAAlgorithm.adaptation_stats`).
        Algorithms without an adaptation engine report ``{}``.
        """
        getter = getattr(self.algorithm, "adaptation_stats", None)
        return getter() if getter is not None else {}

    def close_profile(self) -> dict[str, Any]:
        """The algorithm's close-path profile (units closed, units closed
        densely, latency histogram); ``{}`` for algorithms without one."""
        getter = getattr(self.algorithm, "close_profile", None)
        return getter() if getter is not None else {}

    def memory_units(self) -> int:
        """The algorithm's memory cost proxy (Table IV)."""
        return self.algorithm.memory_units()

    # ------------------------------------------------------------------
    # Pickling (process transport)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        """Pickle every field except the observer list.

        Observers are process-local callbacks (often closures over sockets,
        files or UI state); shipping a session to a worker process must not
        drag them along.  Re-subscribe after unpickling where needed — the
        sharded engine keeps observers on the coordinator side and never
        relies on them crossing a process boundary.
        """
        state = dict(self.__dict__)
        state["_observers"] = []
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot of the full session state.

        Restoring it with :meth:`from_state_dict` yields a session whose
        subsequent detections are identical to an uninterrupted run (the
        ``results`` list is *not* part of the snapshot; past results live in
        ``reports``).  A running shadow experiment (:meth:`start_shadow`) is
        included under an optional ``"shadow"`` key — its full session state
        plus the divergence tracker — so a crash-resumed process continues
        the experiment bit-identically.  Pre-shadow readers ignore the key.
        """
        state = self._primary_state_dict()
        if self._shadow is not None:
            state["shadow"] = {
                "session": self._shadow.state_dict(),
                "tracker": self._shadow_tracker.state_dict(),
            }
        return state

    def _primary_state_dict(self) -> dict[str, Any]:
        """:meth:`state_dict` without the shadow: the substrate of
        reconfiguration and shadow cloning, which operate on core state."""
        return {
            "name": self.name,
            "algorithm": self.algorithm_name,
            "tree": tree_to_dict(self.tree),
            "config": config_to_dict(self.config),
            "clock": clock_to_dict(self.clock),
            "warmup_units": self.warmup_units,
            "max_results": self.max_results,
            "units_processed": self._units_processed,
            "warmup_announced": self.warmup_announced,
            "pending_unit": self._pending_unit,
            "pending": self._pending_state(),
            "reading_seconds": self.reading_seconds,
            "reports": [anomaly.to_dict() for anomaly in self.reports],
            "algorithm_state": self.algorithm.state_dict(),
        }

    @classmethod
    def from_state_dict(cls, state: Mapping[str, Any]) -> "DetectionSession":
        """Rebuild a session (tree, config, algorithm state) from a snapshot."""
        return cls._from_state(state, None)

    @classmethod
    def _from_state(
        cls, state: Mapping[str, Any], tree: "HierarchyTree | None"
    ) -> "DetectionSession":
        """:meth:`from_state_dict` on ``tree`` when one is given.  The tree is
        never changed after it is built, so a session cloned from a live one
        (reconfigured, or a shadow) runs on that session's tree and shares
        its one :class:`~repro.hierarchy.index.HierarchyIndex`."""
        try:
            max_results = state.get("max_results")
            session = cls(
                tree_from_dict(state["tree"]) if tree is None else tree,
                config_from_dict(state["config"]),
                algorithm=str(state["algorithm"]),
                clock=clock_from_dict(state["clock"]),
                warmup_units=int(state["warmup_units"]),
                name=str(state["name"]),
                max_results=None if max_results is None else int(max_results),
            )
            session._units_processed = int(state["units_processed"])
            session.warmup_announced = bool(state["warmup_announced"])
            pending_unit = state["pending_unit"]
            session._pending_unit = None if pending_unit is None else int(pending_unit)
            session._load_pending(state["pending"])
            session.reading_seconds = float(state["reading_seconds"])
            session.reports.add_many(
                Anomaly.from_dict(data) for data in state["reports"]
            )
            session.algorithm.load_state_dict(state["algorithm_state"])
            shadow_state = state.get("shadow")
            if shadow_state is not None:
                session._shadow = cls.from_state_dict(shadow_state["session"])
                session._shadow_tracker = ShadowTracker.from_state_dict(
                    shadow_state["tracker"]
                )
        except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
            # A stored config that fails validation, or a series whose window
            # disagrees with it, is a bad checkpoint too.
            raise CheckpointError(f"malformed session state: {exc!r}") from exc
        return session

    def save_checkpoint(self, path: Any) -> None:
        """Persist :meth:`state_dict` as a JSON checkpoint file."""
        write_json(checkpoint_document([self.state_dict()]), path)

    @classmethod
    def load_checkpoint(cls, path: Any) -> "DetectionSession":
        """Restore a session from a file written by :meth:`save_checkpoint`."""
        return cls.from_state_dict(load_session_checkpoint_state(path))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DetectionSession(name={self.name!r}, algorithm={self.algorithm_name!r}, "
            f"units_processed={self._units_processed})"
        )
