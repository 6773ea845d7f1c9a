"""Unit tests for :mod:`repro.engine.session` (hooks, policies, parity)."""

import gc
import weakref

import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.core.detector import Anomaly
from repro.core.registry import ALGORITHMS
from repro.engine.hooks import CallbackObserver, EngineObserver
from repro.engine.session import DetectionSession
from repro.exceptions import ConfigurationError, OutOfOrderRecordError
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.batch import RecordBatch
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord

DELTA = 100.0


@pytest.fixture
def tree():
    return HierarchyTree(
        [("a", "a1"), ("a", "a2"), ("b", "b1"), ("b", "b2")]
    )


@pytest.fixture
def config():
    return TiresiasConfig(
        theta=4.0,
        ratio_threshold=2.0,
        difference_threshold=4.0,
        delta_seconds=DELTA,
        window_units=32,
        reference_levels=1,
        forecast=ForecastConfig(season_lengths=(4,), fallback_alpha=0.5),
    )


def steady_records(leaf, units, per_unit, start_unit=0):
    records = []
    for unit in range(start_unit, start_unit + units):
        for i in range(per_unit):
            ts = unit * DELTA + (i + 0.5) * DELTA / (per_unit + 1)
            records.append(OperationalRecord.create(ts, leaf))
    return records


def spiky_stream():
    return (
        steady_records(("a", "a1"), units=12, per_unit=6)
        + steady_records(("a", "a1"), units=1, per_unit=40, start_unit=12)
        + steady_records(("a", "a1"), units=3, per_unit=6, start_unit=13)
    )


class TestConstruction:
    def test_unknown_algorithm_rejected(self, tree, config):
        with pytest.raises(ConfigurationError):
            DetectionSession(tree, config, algorithm="magic")

    def test_negative_warmup_rejected(self, tree, config):
        with pytest.raises(ConfigurationError):
            DetectionSession(tree, config, warmup_units=-1)

    def test_negative_max_results_rejected(self, tree, config):
        assert DetectionSession(tree, config, max_results=0).max_results == 0
        with pytest.raises(ConfigurationError, match="max_results"):
            DetectionSession(tree, config, max_results=-1)

    def test_named(self, tree, config):
        session = DetectionSession(tree, config, name="ccd-trouble")
        assert session.name == "ccd-trouble"

    def test_clock_delta_must_match(self, tree, config):
        with pytest.raises(ConfigurationError):
            DetectionSession(tree, config, clock=SimulationClock(delta=999.0))

    def test_default_warmup_is_forecast_min_history(self, tree, config):
        session = DetectionSession(tree, config)
        assert session.warmup_units == config.forecast.min_history

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_each_algorithm_by_name_checkpoints_and_resumes(self, tree, config, name):
        """Every algorithm of the closed set snapshots its state: a restored
        session names the same algorithm and continues like the original."""
        session = DetectionSession(tree, config, algorithm=name, warmup_units=0)
        assert session.algorithm_name == name
        assert type(session.algorithm) is ALGORITHMS[name]
        for unit in range(6):
            session.process_timeunit_counts({("a", "a1"): 6, ("b", "b2"): 5}, unit)
        restored = DetectionSession.from_state_dict(session.state_dict())
        assert restored.algorithm_name == name
        assert type(restored.algorithm) is ALGORITHMS[name]
        spike = {("a", "a1"): 40, ("b", "b2"): 5}
        assert restored.process_timeunit_counts(spike, 6) == session.process_timeunit_counts(
            spike, 6
        )


class TestStreamProcessing:
    def test_records_grouped_into_timeunits(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=0)
        results = session.process_stream(
            iter(steady_records(("a", "a1"), units=5, per_unit=6))
        )
        assert session.units_processed == 5
        assert len(results) == 5
        assert all(("a", "a1") in r.heavy_hitters for r in results)

    def test_empty_timeunits_are_processed(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=0)
        records = [
            OperationalRecord.create(50.0, ("a", "a1")),
            OperationalRecord.create(450.0, ("a", "a1")),
        ]
        session.process_stream(iter(records))
        # Units 0..4 all get processed even though 1-3 are empty.
        assert session.units_processed == 5

    def test_spike_detected_and_reported_as_anomalies(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=4)
        session.process_stream(iter(spiky_stream()))
        assert any(a.node_path == ("a", "a1") for a in session.anomalies)
        assert all(isinstance(a, Anomaly) for a in session.anomalies)

    def test_warmup_suppresses_early_anomalies(self, tree, config):
        spike_first = steady_records(("a", "a1"), units=1, per_unit=40)
        rest = steady_records(("a", "a1"), units=6, per_unit=6, start_unit=1)
        session = DetectionSession(tree, config, warmup_units=3)
        results = session.process_stream(iter(spike_first + rest))
        assert all(not r.anomalies for r in results[:3])
        assert all(a.timeunit >= 3 for a in session.anomalies)

    def test_sta_and_ada_both_runnable(self, tree, config):
        records = steady_records(("a", "a1"), units=6, per_unit=6)
        for algorithm in ("ada", "sta"):
            session = DetectionSession(tree, config, algorithm=algorithm, warmup_units=0)
            assert len(session.process_stream(iter(records))) == 6

    def test_stage_seconds_include_reading(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=0)
        session.process_stream(iter(steady_records(("a", "a1"), units=3, per_unit=4)))
        stages = session.stage_seconds()
        assert stages["reading_traces"] >= 0.0
        assert session.memory_units() > 0

    def test_flush_without_data_is_noop(self, tree, config):
        assert DetectionSession(tree, config).flush() == []

    def test_process_timeunit_counts_direct(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=0)
        result = session.process_timeunit_counts({("a", "a1"): 9}, timeunit=0)
        assert ("a", "a1") in result.heavy_hitters
        assert session.units_processed == 1
        assert session.results == [result]


class TestHooks:
    def test_on_timeunit_closed_fires_for_every_unit(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=0)
        closed = []
        session.subscribe(
            CallbackObserver(on_timeunit_closed=lambda s, r: closed.append(r.timeunit))
        )
        session.process_stream(iter(steady_records(("a", "a1"), units=5, per_unit=6)))
        assert closed == [0, 1, 2, 3, 4]

    def test_on_anomaly_fires_only_after_warmup(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=4)
        events = []
        session.subscribe(
            CallbackObserver(on_anomaly=lambda s, a: events.append((s.name, a)))
        )
        session.process_stream(iter(spiky_stream()))
        assert len(events) == len(session.anomalies) > 0
        assert all(name == session.name for name, _ in events)
        assert all(anomaly.timeunit >= 4 for _, anomaly in events)

    def test_on_warmup_complete_fires_once(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=3)
        announced = []
        session.subscribe(
            CallbackObserver(on_warmup_complete=lambda s, unit: announced.append(unit))
        )
        session.process_stream(iter(steady_records(("a", "a1"), units=6, per_unit=6)))
        assert announced == [2]  # fired when the 3rd (index 2) timeunit closed

    def test_unsubscribe_stops_events(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=0)
        closed = []
        observer = session.subscribe(
            CallbackObserver(on_timeunit_closed=lambda s, r: closed.append(r))
        )
        session.process_timeunit_counts({("a", "a1"): 5}, timeunit=0)
        session.unsubscribe(observer)
        session.process_timeunit_counts({("a", "a1"): 5}, timeunit=1)
        assert len(closed) == 1

    def test_base_observer_is_noop(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=0)
        session.subscribe(EngineObserver())
        results = session.process_stream(
            iter(steady_records(("a", "a1"), units=3, per_unit=6))
        )
        assert len(results) == 3


class TestOutOfOrderPolicy:
    def late_record(self):
        # Arrives after timeunit 0 already closed (the stream is in unit 2).
        return OperationalRecord.create(0.5 * DELTA, ("b", "b1"))

    def advance_to_unit_2(self, session):
        session.ingest_record(OperationalRecord.create(10.0, ("a", "a1")))
        session.ingest_record(OperationalRecord.create(2 * DELTA + 10.0, ("a", "a1")))

    def test_default_policy_raises(self, tree, config):
        assert config.out_of_order_policy == "raise"
        session = DetectionSession(tree, config, warmup_units=0)
        self.advance_to_unit_2(session)
        with pytest.raises(OutOfOrderRecordError):
            session.ingest_record(self.late_record())

    def test_drop_policy_discards(self, tree, config):
        session = DetectionSession(
            tree, config.replace(out_of_order_policy="drop"), warmup_units=0
        )
        self.advance_to_unit_2(session)
        assert session.ingest_record(self.late_record()) == []
        results = session.flush()
        assert results[0].actuals[()] == 1.0  # only the in-order record counted

    def test_clamp_policy_counts_into_open_unit(self, tree, config):
        session = DetectionSession(
            tree, config.replace(out_of_order_policy="clamp"), warmup_units=0
        )
        self.advance_to_unit_2(session)
        session.ingest_record(self.late_record())
        results = session.flush()
        assert results[0].actuals[()] == 2.0  # late record landed in unit 2


class TestBatchIngestion:
    def test_ingest_batch_equals_record_loop(self, tree, config):
        records = spiky_stream()
        one = DetectionSession(tree, config, warmup_units=4)
        other = DetectionSession(
            HierarchyTree(
                [("a", "a1"), ("a", "a2"), ("b", "b1"), ("b", "b2")]
            ),
            config,
            warmup_units=4,
        )
        batched = one.ingest_batch(records) + one.flush()
        looped = []
        for record in records:
            looped.extend(other.ingest_record(record))
        looped.extend(other.flush())
        assert batched == looped


class TestTimeunitBinning:
    """The session is the one binner: records count into the timeunit of
    their timestamp, and a columnar batch bins exactly as its records would
    one at a time — under every out-of-order policy, on ADA's dense close
    and on the per-run path STA takes."""

    def test_records_land_in_their_timeunit(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=0)
        for ts in (1.0, DELTA + 2.0, DELTA + 3.0):
            session.ingest_record(OperationalRecord.create(ts, ("a", "a1")))
        results = session.flush()
        assert [r.timeunit for r in results] == [1]
        assert [r.actuals[()] for r in session.results] == [1.0, 2.0]

    def test_categories_are_counted_apart(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=0)
        records = steady_records(("a", "a1"), units=1, per_unit=5) + steady_records(
            ("b", "b1"), units=1, per_unit=4
        )
        session.ingest_record(OperationalRecord.create(10.0, ("a", "a2")))
        (result,) = session.process_stream(sorted(records, key=lambda r: r.timestamp))
        assert result.actuals[("a", "a1")] == 5.0
        assert result.actuals[("b", "b1")] == 4.0
        assert ("a", "a2") not in result.heavy_hitters
        assert ("b", "b2") not in result.actuals

    def test_advance_to_closes_every_unit_before_it(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=0)
        session.ingest_record(OperationalRecord.create(1.0, ("a", "a1")))
        closed = session.advance_to(4)
        assert [r.timeunit for r in closed] == [0, 1, 2, 3]
        assert [r.actuals[()] for r in closed] == [1.0, 0.0, 0.0, 0.0]

    def test_advance_to_anchors_a_fresh_session(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=0)
        assert session.advance_to(7) == []
        session.ingest_record(OperationalRecord.create(7 * DELTA + 1.0, ("a", "a1")))
        assert [r.timeunit for r in session.flush()] == [7]
        assert session.units_processed == 1

    def test_advance_to_the_open_unit_is_a_noop(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=0)
        session.ingest_record(OperationalRecord.create(2 * DELTA + 1.0, ("a", "a1")))
        assert session.advance_to(2) == []
        assert session.advance_to(1) == []
        assert session.units_processed == 0
        assert [r.actuals[()] for r in session.flush()] == [1.0]

    def test_flush_closes_the_open_unit_once(self, tree, config):
        session = DetectionSession(tree, config, warmup_units=0)
        session.ingest_record(OperationalRecord.create(1.0, ("a", "a1")))
        assert len(session.flush()) == 1
        assert session.flush() == []
        assert session.units_processed == 1

    @staticmethod
    def binned_both_ways(tree, config, algorithm, records):
        """``[(results, raised)]`` of one session fed ``records`` as one
        batch and of one fed them one at a time, each flushed afterwards;
        an :class:`OutOfOrderRecordError` stops either feed where it is
        raised."""

        def batch(session):
            session.ingest_record_batch(RecordBatch.from_records(records))

        def loop(session):
            for record in records:
                session.ingest_record(record)

        outcomes = []
        for feed in (batch, loop):
            session = DetectionSession(
                HierarchyTree(tree.leaf_paths()),
                config,
                algorithm=algorithm,
                warmup_units=0,
            )
            try:
                feed(session)
                raised = False
            except OutOfOrderRecordError:
                raised = True
            session.flush()
            outcomes.append((session.results, raised))
        return outcomes

    @pytest.mark.parametrize("algorithm", ["ada", "sta"])
    def test_batch_matches_record_loop_in_order(self, tree, config, algorithm):
        batched, looped = self.binned_both_ways(tree, config, algorithm, spiky_stream())
        assert batched == looped
        assert len(batched[0]) == 16

    @pytest.mark.parametrize("algorithm", ["ada", "sta"])
    @pytest.mark.parametrize("policy", ["drop", "clamp"])
    def test_batch_matches_record_loop_with_late_runs(
        self, tree, config, algorithm, policy
    ):
        # The stream jumps to unit 3, then falls behind it and catches up.
        records = [
            OperationalRecord.create(ts, leaf)
            for ts, leaf in [
                (1.0, ("a", "a1")),
                (3 * DELTA + 1.0, ("b", "b1")),
                (2.0, ("a", "a1")),
                (DELTA + 5.0, ("a", "a2")),
                (3 * DELTA + 3.0, ("b", "b1")),
                (4 * DELTA + 1.0, ("a", "a1")),
            ]
        ]
        batched, looped = self.binned_both_ways(
            tree, config.replace(out_of_order_policy=policy), algorithm, records
        )
        assert batched == looped
        results, raised = batched
        assert not raised
        assert [r.timeunit for r in results] == [0, 1, 2, 3, 4]
        late_in_unit_3 = 2.0 if policy == "clamp" else 0.0
        assert results[3].actuals[()] == 2.0 + late_in_unit_3

    @pytest.mark.parametrize("algorithm", ["ada", "sta"])
    def test_late_run_raises_after_the_runs_before_it(self, tree, config, algorithm):
        records = [
            OperationalRecord.create(ts, ("a", "a1"))
            for ts in (1.0, 2 * DELTA + 1.0, 2.0, 2 * DELTA + 3.0)
        ]
        batched, looped = self.binned_both_ways(tree, config, algorithm, records)
        assert batched == looped
        results, raised = batched
        assert raised
        # Units 0 and 1 closed before the late run; unit 2 holds one record.
        assert [r.actuals[()] for r in results] == [1.0, 0.0, 1.0]

    @pytest.mark.parametrize("algorithm", ["ada", "sta"])
    def test_empty_batch_is_a_noop(self, tree, config, algorithm):
        session = DetectionSession(tree, config, algorithm=algorithm, warmup_units=0)
        assert session.ingest_record_batch(RecordBatch.empty()) == []
        assert session.flush() == []
        assert session.units_processed == 0


class TestLifetime:
    def test_a_dropped_session_is_freed_without_the_garbage_collector(
        self, tree, config
    ):
        """Nothing in a session refers back to its algorithm: the bank
        matrix, the hierarchy index and the statistics arrays go the moment
        the last reference does, not at the next full collection."""
        gc.disable()
        try:
            session = DetectionSession(tree, config)
            session.process_stream(spiky_stream())
            assert len(session.algorithm.bank)
            session.state_dict()
            algorithm = weakref.ref(session.algorithm)
            del session
            assert algorithm() is None
        finally:
            gc.enable()
