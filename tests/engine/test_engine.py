"""Unit tests for :mod:`repro.engine.engine` (multi-session routing)."""

import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.engine import CallbackObserver, DetectionEngine, DetectionSession
from repro.exceptions import ConfigurationError, StreamError
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.record import OperationalRecord
from repro.streaming.stream import InputStream

DELTA = 100.0


def make_tree(prefix):
    return HierarchyTree(
        [(prefix, "x", "x1"), (prefix, "x", "x2"), (prefix, "y", "y1")]
    )


def make_config(**overrides):
    base = TiresiasConfig(
        theta=4.0,
        ratio_threshold=2.0,
        difference_threshold=4.0,
        delta_seconds=DELTA,
        window_units=32,
        reference_levels=1,
        forecast=ForecastConfig(season_lengths=(4,), fallback_alpha=0.5),
    )
    return base.replace(**overrides) if overrides else base


def stream_records(stream, leaf, units, per_unit, start_unit=0):
    """Tagged records routed to session ``stream`` by the default selector."""
    records = []
    for unit in range(start_unit, start_unit + units):
        for i in range(per_unit):
            ts = unit * DELTA + (i + 0.5) * DELTA / (per_unit + 1)
            records.append(OperationalRecord.create(ts, leaf, stream=stream))
    return records


def spiky(stream, leaf):
    return (
        stream_records(stream, leaf, units=10, per_unit=6)
        + stream_records(stream, leaf, units=1, per_unit=40, start_unit=10)
        + stream_records(stream, leaf, units=3, per_unit=6, start_unit=13)
    )


class TestSessionManagement:
    def test_add_and_lookup(self):
        engine = DetectionEngine()
        session = engine.add_session("ccd", make_tree("t"), make_config())
        assert engine.session("ccd") is session
        assert "ccd" in engine
        assert engine.session_names == ("ccd",)
        assert len(engine) == 1

    def test_duplicate_name_rejected(self):
        engine = DetectionEngine()
        engine.add_session("ccd", make_tree("t"), make_config())
        with pytest.raises(ConfigurationError, match="already registered"):
            engine.add_session("ccd", make_tree("t"), make_config())

    def test_unknown_session_lookup_raises(self):
        engine = DetectionEngine()
        with pytest.raises(ConfigurationError, match="no session"):
            engine.session("nope")

    def test_invalid_unknown_stream_policy(self):
        with pytest.raises(ConfigurationError):
            DetectionEngine(unknown_stream="explode")


class TestRouting:
    def test_routes_by_stream_attribute(self):
        engine = DetectionEngine()
        engine.add_session("left", make_tree("l"), make_config(), warmup_units=0)
        engine.add_session("right", make_tree("r"), make_config(), warmup_units=0)
        merged = InputStream.merge(
            stream_records("left", ("l", "x", "x1"), units=4, per_unit=5),
            stream_records("right", ("r", "y", "y1"), units=4, per_unit=3),
        )
        engine.process_stream(merged)
        assert engine.session("left").units_processed == 4
        assert engine.session("right").units_processed == 4
        assert engine.units_processed() == {"left": 4, "right": 4}

    def test_single_session_gets_unkeyed_records(self):
        engine = DetectionEngine()
        engine.add_session("only", make_tree("t"), make_config(), warmup_units=0)
        records = [
            OperationalRecord.create(10.0, ("t", "x", "x1")),
            OperationalRecord.create(DELTA + 10.0, ("t", "x", "x1")),
        ]
        engine.process_stream(iter(records))
        assert engine.session("only").units_processed == 2

    def test_unknown_stream_raises_by_default(self):
        engine = DetectionEngine()
        engine.add_session("a", make_tree("a"), make_config(), warmup_units=0)
        engine.add_session("b", make_tree("b"), make_config(), warmup_units=0)
        with pytest.raises(StreamError, match="unknown session"):
            engine.ingest_record(
                OperationalRecord.create(5.0, ("a", "x", "x1"), stream="c")
            )

    def test_unknown_stream_drop_policy(self):
        engine = DetectionEngine(unknown_stream="drop")
        engine.add_session("a", make_tree("a"), make_config(), warmup_units=0)
        engine.add_session("b", make_tree("b"), make_config(), warmup_units=0)
        assert (
            engine.ingest_record(
                OperationalRecord.create(5.0, ("a", "x", "x1"), stream="c")
            )
            == []
        )

    def test_custom_stream_key(self):
        engine = DetectionEngine(stream_key=lambda record: record.category[0])
        engine.add_session("l", make_tree("l"), make_config(), warmup_units=0)
        engine.add_session("r", make_tree("r"), make_config(), warmup_units=0)
        engine.ingest_record(OperationalRecord.create(5.0, ("l", "x", "x1")))
        engine.ingest_record(OperationalRecord.create(6.0, ("r", "y", "y1")))
        engine.flush()
        assert engine.session("l").units_processed == 1
        assert engine.session("r").units_processed == 1

    def test_ingest_batch_groups_results_by_session(self):
        engine = DetectionEngine()
        engine.add_session("left", make_tree("l"), make_config(), warmup_units=0)
        engine.add_session("right", make_tree("r"), make_config(), warmup_units=0)
        records = sorted(
            stream_records("left", ("l", "x", "x1"), units=3, per_unit=4)
            + stream_records("right", ("r", "y", "y1"), units=3, per_unit=4)
        )
        closed = engine.ingest_batch(records)
        assert set(closed) == {"left", "right"}
        assert [r.timeunit for r in closed["left"]] == [0, 1]
        flushed = engine.flush()
        assert [r.timeunit for r in flushed["left"]] == [2]


class TestParityAndObservers:
    def test_engine_sessions_match_standalone_runs(self):
        """A merged three-hierarchy stream gives each session exactly the
        results a standalone session over its own stream would give."""
        specs = {
            "ccd-trouble": ("t", ("t", "x", "x1")),
            "ccd-network": ("n", ("n", "y", "y1")),
            "scd": ("s", ("s", "x", "x2")),
        }
        engine = DetectionEngine()
        for name, (prefix, _) in specs.items():
            engine.add_session(name, make_tree(prefix), make_config(), warmup_units=4)
        merged = InputStream.merge(
            *(spiky(name, leaf) for name, (_, leaf) in specs.items())
        )
        engine_results = engine.process_stream(merged)

        for name, (prefix, leaf) in specs.items():
            standalone = DetectionSession(make_tree(prefix), make_config(), warmup_units=4)
            expected = standalone.process_stream(iter(spiky(name, leaf)))
            assert engine_results[name] == expected
            assert engine.session(name).anomalies == standalone.anomalies

    def test_engine_observer_sees_all_sessions(self):
        engine = DetectionEngine()
        seen = []
        engine.subscribe(
            CallbackObserver(on_anomaly=lambda s, a: seen.append(s.name))
        )
        engine.add_session("left", make_tree("l"), make_config(), warmup_units=4)
        engine.add_session("right", make_tree("r"), make_config(), warmup_units=4)
        merged = InputStream.merge(
            spiky("left", ("l", "x", "x1")), spiky("right", ("r", "y", "y1"))
        )
        engine.process_stream(merged)
        assert "left" in seen and "right" in seen
        total = sum(len(a) for a in engine.anomalies().values())
        assert len(seen) == total > 0

    def test_memory_units_totals_sessions(self):
        engine = DetectionEngine()
        engine.add_session("a", make_tree("a"), make_config(), warmup_units=0)
        engine.process_stream(
            iter(stream_records("a", ("a", "x", "x1"), units=3, per_unit=4))
        )
        assert engine.memory_units() == engine.session("a").memory_units() > 0


class TestObserverDetachment:

    def test_session_max_results_bounds_history(self):
        engine = DetectionEngine()
        engine.add_session(
            "only", make_tree("t"), make_config(), warmup_units=0, max_results=3
        )
        session = engine.session("only")
        for unit in range(10):
            session.process_timeunit_counts({("t", "x", "x1"): 5}, timeunit=unit)
        assert [r.timeunit for r in session.results] == [7, 8, 9]
        assert session.units_processed == 10

    def test_unsubscribe_detaches_from_every_session(self):
        engine = DetectionEngine()
        events = []
        observer = engine.subscribe(
            CallbackObserver(on_timeunit_closed=lambda s, r: events.append(s.name))
        )
        engine.add_session("left", make_tree("l"), make_config(), warmup_units=0)
        engine.add_session("right", make_tree("r"), make_config(), warmup_units=0)
        engine.unsubscribe(observer)
        engine.session("left").process_timeunit_counts({("l", "x", "x1"): 5}, timeunit=0)
        engine.session("right").process_timeunit_counts({("r", "x", "x1"): 5}, timeunit=0)
        assert events == []

    def test_unsubscribed_observer_skips_later_sessions(self):
        engine = DetectionEngine()
        events = []
        observer = engine.subscribe(
            CallbackObserver(on_timeunit_closed=lambda s, r: events.append(s.name))
        )
        engine.unsubscribe(observer)
        engine.add_session("late", make_tree("t"), make_config(), warmup_units=0)
        engine.session("late").process_timeunit_counts({("t", "x", "x1"): 5}, timeunit=0)
        assert events == []

    def test_unsubscribing_a_stranger_is_a_noop(self):
        engine = DetectionEngine()
        events = []
        engine.subscribe(
            CallbackObserver(on_timeunit_closed=lambda s, r: events.append(r.timeunit))
        )
        engine.add_session("only", make_tree("t"), make_config(), warmup_units=0)
        engine.unsubscribe(CallbackObserver())
        engine.session("only").process_timeunit_counts({("t", "x", "x1"): 5}, timeunit=0)
        assert events == [0]
