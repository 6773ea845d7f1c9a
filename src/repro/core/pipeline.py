"""The end-to-end Tiresias system (Fig. 3, Steps 1-6).

:class:`Tiresias` is the backward-compatible single-hierarchy facade over the
engine layer: it wraps exactly one
:class:`~repro.engine.session.DetectionSession` and re-exports its interface,
so existing call sites keep working while new code composes sessions inside a
:class:`~repro.engine.engine.DetectionEngine`.

The pipeline stages remain the paper's:

1. records are classified into timeunits (Step 1, :mod:`repro.streaming`);
2. heavy hitters are detected and their time series maintained (Step 2, the
   tracking algorithm resolved by name through :mod:`repro.core.registry` —
   ``"ada"`` or ``"sta"`` built in);
3. seasonality analysis parameterizes the forecasting model (Step 3,
   :func:`derive_seasonal_config`, run offline as in the paper);
4. Holt-Winters forecasts feed the dual-threshold detector (Step 4,
   Definition 4);
5. anomalies are appended to the report store and pushed to subscribed
   observers (Step 5, :class:`~repro.core.reporting.AnomalyReportStore`,
   :mod:`repro.engine.hooks`);
6. the pipeline keeps consuming new arrivals (Step 6).

Vectorized close path (Fig. 3 Steps 2-4, columnar)
--------------------------------------------------
Every per-timeunit close runs Steps 2-4 columnar rather than per node,
whatever forecasting model the config names:

* **Step 2** — heavy hitter membership and modified weights come from the
  dense level-sweep kernels of :class:`~repro.hierarchy.index.HierarchyIndex`
  (exact, because per-timeunit weights are integer record counts), and the
  per-node series adapt as rows of the
  :class:`~repro.forecasting.bank.ForecasterBank` matrix (SPLIT is a
  multiply over the row, MERGE an add);
* **Step 3/4 forecasting** — the level/trend/seasonal state and both
  windows of *every* tracked node are one bank row each, and the whole
  tracked set advances with one ``ForecasterBank.observe_rows_arrays`` call
  and one ``ForecasterBank.record_rows`` call per timeunit instead of N
  scalar model updates;
* **Step 4 detection** — the dual-threshold rule evaluates all
  (actual, forecast) pairs at once through
  :meth:`~repro.core.detector.ThresholdDetector.check_many`.

The slow per-path oracle the close is tested against lives in
:mod:`repro.testing.reference`; it never runs in production.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro._types import CategoryPath, TimeunitIndex, Weight
from repro.core.config import TiresiasConfig
from repro.core.detector import Anomaly
from repro.core.reporting import AnomalyReportStore
from repro.core.results import TimeunitResult
from repro.engine.hooks import EngineObserver
from repro.engine.session import DetectionSession
from repro.hierarchy.tree import HierarchyTree
from repro.seasonality.analyzer import SeasonalityAnalyzer
from repro.streaming.batch import RecordBatch
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord

#: Historical alias kept for import compatibility; any registered algorithm
#: name (:func:`repro.core.registry.available_algorithms`) is accepted.
AlgorithmName = str


def derive_seasonal_config(
    series: Sequence[float],
    config: TiresiasConfig,
    max_seasons: int = 2,
) -> TiresiasConfig:
    """Step 3: set the forecasting seasons from an offline seasonality analysis.

    ``series`` is a per-timeunit count series (typically the root aggregate of
    a historical trace).  The FFT + wavelet analyzer picks the significant
    periods and their combination weights; the returned config carries them in
    its :class:`~repro.core.config.ForecastConfig`.
    """
    analyzer = SeasonalityAnalyzer(
        timeunit_seconds=config.delta_seconds, max_seasons=max_seasons
    )
    profile = analyzer.analyze(series)
    forecast = config.forecast.with_seasons(profile.periods_timeunits, profile.weights)
    return config.replace(forecast=forecast)


class Tiresias:
    """Online anomaly detector over one hierarchical domain (facade).

    Thin wrapper around a single :class:`~repro.engine.session.DetectionSession`
    kept for backward compatibility; the session is exposed as
    :attr:`session` for code migrating to the engine API.

    Parameters
    ----------
    tree:
        The hierarchical domain the record categories are drawn from.
    config:
        Detector configuration (θ, RT/DT, Δ, ℓ, split rule, ...).
    algorithm:
        Registry name of the tracking algorithm: ``"ada"`` (the paper's
        adaptive algorithm, default), ``"sta"`` (the strawman used as ground
        truth in the evaluation), or any name registered with
        :func:`repro.core.registry.register_algorithm`.
    clock:
        Simulation clock; defaults to one with Δ from the config and epoch 0.
    warmup_units:
        Number of initial timeunits during which anomalies are suppressed
        while the forecasting models accumulate history.  Defaults to the
        forecasting model's minimum history.
    """

    def __init__(
        self,
        tree: HierarchyTree,
        config: TiresiasConfig,
        algorithm: str = "ada",
        clock: SimulationClock | None = None,
        warmup_units: int | None = None,
    ):
        self.session = DetectionSession(
            tree,
            config,
            algorithm=algorithm,
            clock=clock,
            warmup_units=warmup_units,
            name="tiresias",
        )

    # ------------------------------------------------------------------
    # Online ingestion (delegated)
    # ------------------------------------------------------------------
    def process_stream(
        self, records: Iterable[OperationalRecord]
    ) -> list[TimeunitResult]:
        """Consume a time-ordered record stream; returns per-timeunit results."""
        return self.session.process_stream(records)

    def ingest_record(self, record: OperationalRecord) -> list[TimeunitResult]:
        """Add one record; returns results for any timeunits that closed."""
        return self.session.ingest_record(record)

    def ingest_batch(
        self, records: Iterable[OperationalRecord]
    ) -> list[TimeunitResult]:
        """Add a batch of records; returns results of timeunits that closed."""
        return self.session.ingest_batch(records)

    def ingest_record_batch(self, batch: RecordBatch) -> list[TimeunitResult]:
        """Add a columnar batch; returns results of timeunits that closed."""
        return self.session.ingest_record_batch(batch)

    def process_batches(self, batches: Iterable[RecordBatch]) -> list[TimeunitResult]:
        """Consume a stream of columnar batches, then flush."""
        return self.session.process_batches(batches)

    def process_stream_sharded(
        self,
        records: Iterable[OperationalRecord],
        num_workers: int = 2,
        subtree_shards: "int | None" = None,
        batch_size: int = 8192,
        start_method: "str | None" = None,
    ) -> list[TimeunitResult]:
        """Consume a stream across ``num_workers`` processes, then flush.

        The detector's hierarchy is partitioned into ``subtree_shards``
        disjoint depth-1 subtree groups (defaults to ``num_workers``;
        requires ``config.track_root=False`` and ``allow_root_heavy=False``
        when > 1), the current session
        state is split across worker processes, and the merged state is
        loaded back afterwards — results, reports and all subsequent
        detections are bit-identical to :meth:`process_stream`.  Observers
        subscribed to the session fire during the run with a
        :class:`~repro.engine.sharded.ShardedSessionHandle` as the session
        argument and remain subscribed afterwards.

        The coordinator loop is pipelined
        (:meth:`~repro.engine.sharded.ShardedDetectionEngine.process_batches`):
        ``records`` is read one batch ahead of the results being merged, so
        with a *live* iterator observers see a batch's alerts once the next
        batch has arrived (the last one at end of stream), in the same
        order and with the same content as :meth:`process_stream`.
        """
        from repro.engine.sharded import ShardedDetectionEngine
        from repro.streaming.batch import iter_record_batches

        shards = num_workers if subtree_shards is None else subtree_shards
        observers = list(self.session._observers)
        with ShardedDetectionEngine(
            num_workers=num_workers, start_method=start_method
        ) as engine:
            engine.attach_session_state(
                self.session.state_dict(), subtree_shards=shards
            )
            for observer in observers:
                engine.subscribe(observer)
            results = engine.process_batches(
                iter_record_batches(records, batch_size)
            )[self.session.name]
            merged_state = engine.merged_session_state(self.session.name)
        self.session = DetectionSession.from_state_dict(merged_state)
        for observer in observers:
            self.session.subscribe(observer)
        return results

    def flush(self) -> list[TimeunitResult]:
        """Close the currently accumulating timeunit (end of stream)."""
        return self.session.flush()

    def process_timeunit_counts(
        self, counts: dict[CategoryPath, Weight], timeunit: TimeunitIndex | None = None
    ) -> TimeunitResult:
        """Process one timeunit worth of per-leaf counts."""
        return self.session.process_timeunit_counts(counts, timeunit)

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def subscribe(self, observer: EngineObserver) -> EngineObserver:
        """Attach a lifecycle observer (see :mod:`repro.engine.hooks`)."""
        return self.session.subscribe(observer)

    def unsubscribe(self, observer: EngineObserver) -> None:
        self.session.unsubscribe(observer)

    # ------------------------------------------------------------------
    # Introspection (delegated)
    # ------------------------------------------------------------------
    @property
    def tree(self) -> HierarchyTree:
        return self.session.tree

    @property
    def config(self) -> TiresiasConfig:
        return self.session.config

    @property
    def clock(self) -> SimulationClock:
        return self.session.clock

    @property
    def algorithm(self) -> Any:
        """The underlying tracking-algorithm instance."""
        return self.session.algorithm

    @property
    def algorithm_name(self) -> str:
        return self.session.algorithm_name

    @property
    def warmup_units(self) -> int:
        return self.session.warmup_units

    @property
    def reports(self) -> AnomalyReportStore:
        return self.session.reports

    @property
    def results(self) -> list[TimeunitResult]:
        return self.session.results

    @property
    def reading_seconds(self) -> float:
        return self.session.reading_seconds

    @property
    def units_processed(self) -> int:
        return self.session.units_processed

    @property
    def anomalies(self) -> list[Anomaly]:
        """All anomalies reported so far (after warm-up)."""
        return self.session.anomalies

    def stage_seconds(self) -> dict[str, float]:
        """Per-stage running time, including trace reading (Table III stages)."""
        return self.session.stage_seconds()

    def memory_units(self) -> int:
        """The algorithm's memory cost proxy (Table IV)."""
        return self.session.memory_units()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save_checkpoint(self, path: Any) -> None:
        """Persist the detector state as a JSON checkpoint file."""
        self.session.save_checkpoint(path)

    @classmethod
    def load_checkpoint(cls, path: Any) -> "Tiresias":
        """Restore a detector from a file written by :meth:`save_checkpoint`."""
        session = DetectionSession.load_checkpoint(path)
        facade = cls.__new__(cls)
        facade.session = session
        return facade

    @classmethod
    def from_session(cls, session: DetectionSession) -> "Tiresias":
        """Wrap an existing session in the facade interface."""
        facade = cls.__new__(cls)
        facade.session = session
        return facade

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Tiresias(algorithm={self.algorithm_name!r}, "
            f"units_processed={self.units_processed})"
        )

