"""Unit tests for :mod:`repro.engine.session` (hooks, policies, parity)."""

import gc
import weakref

import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.core.pipeline import Tiresias
from repro.engine.hooks import CallbackObserver, EngineObserver
from repro.engine.session import DetectionSession
from repro.exceptions import ConfigurationError, OutOfOrderRecordError
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.record import OperationalRecord

DELTA = 100.0


@pytest.fixture
def tree():
    return HierarchyTree.from_leaf_paths(
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

    def test_named(self, tree, config):
        session = DetectionSession(tree, config, name="ccd-trouble")
        assert session.name == "ccd-trouble"


class TestFacadeParity:
    def test_session_matches_tiresias_facade(self, tree, config):
        records = spiky_stream()
        session = DetectionSession(tree, config, warmup_units=4)
        facade = Tiresias(
            HierarchyTree.from_leaf_paths(
                [("a", "a1"), ("a", "a2"), ("b", "b1"), ("b", "b2")]
            ),
            config,
            warmup_units=4,
        )
        session_results = session.process_stream(iter(records))
        facade_results = facade.process_stream(iter(records))
        assert session_results == facade_results
        assert session.anomalies == facade.anomalies
        assert facade.session.name == "tiresias"

    def test_facade_exposes_session(self, tree, config):
        facade = Tiresias(tree, config)
        assert isinstance(facade.session, DetectionSession)
        assert facade.algorithm is facade.session.algorithm
        wrapped = Tiresias.from_session(facade.session)
        assert wrapped.session is facade.session


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

    def test_facade_applies_policy_too(self, tree, config):
        facade = Tiresias(tree, config, warmup_units=0)
        facade.ingest_record(OperationalRecord.create(10.0, ("a", "a1")))
        facade.ingest_record(OperationalRecord.create(2 * DELTA + 10.0, ("a", "a1")))
        with pytest.raises(OutOfOrderRecordError):
            facade.ingest_record(self.late_record())


class TestBatchIngestion:
    def test_ingest_batch_equals_record_loop(self, tree, config):
        records = spiky_stream()
        one = DetectionSession(tree, config, warmup_units=4)
        other = DetectionSession(
            HierarchyTree.from_leaf_paths(
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
            assert len(session.algorithm.series)
            handles = [session.algorithm.series[path] for path in session.algorithm.series]
            session.state_dict()
            algorithm = weakref.ref(session.algorithm)
            del session, handles
            assert algorithm() is None
        finally:
            gc.enable()
