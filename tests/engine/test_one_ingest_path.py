"""Sessions and engines ingest through one path: a record is a batch of one.

``ingest_record``, ``ingest_batch`` and ``process_stream`` of
:class:`DetectionSession`, :class:`DetectionEngine` and
:class:`ShardedDetectionEngine` are adapters over ``ingest_record_batch`` /
``process_batches``.  These tests hold the three classes to one another where
a stream fails part-way (an unknown stream key, a source that raises), and
the record forms to the batch forms on every output.
"""

from __future__ import annotations

import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.engine.engine import DetectionEngine
from repro.engine.session import DetectionSession
from repro.engine.sharded import ShardedDetectionEngine
from repro.exceptions import StreamError
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.batch import iter_record_batches
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord
from repro.streaming.stream import InputStream
from tests.conftest import canonical_checkpoint

DELTA = 900.0


@pytest.fixture
def tree() -> HierarchyTree:
    return HierarchyTree(
        [(f"r{r}", f"s{r}{s}") for r in range(3) for s in range(4)]
    )


def make_config(policy: str = "drop") -> TiresiasConfig:
    return TiresiasConfig(
        theta=3.0,
        ratio_threshold=2.0,
        difference_threshold=3.0,
        delta_seconds=DELTA,
        window_units=16,
        reference_levels=1,
        out_of_order_policy=policy,
        forecast=ForecastConfig(season_lengths=(4,), fallback_alpha=0.3),
    )


def stream_records(tree, units=40, per_unit=5, stream="p"):
    """A time-ordered stream with a flash crowd on one leaf late on."""
    leaves = tree.leaf_paths()
    out = []
    for unit in range(units):
        burst = 12 if unit == units - 8 else 0
        for i in range(per_unit + burst):
            leaf = leaves[0] if i >= per_unit else leaves[(unit * 7 + i) % len(leaves)]
            ts = unit * DELTA + (i + 0.5) * DELTA / (per_unit + burst + 1)
            out.append(OperationalRecord.create(ts, leaf, stream=stream))
    return out


def serial_session(tree, policy="drop", algorithm="ada"):
    return DetectionSession(
        tree,
        make_config(policy),
        algorithm=algorithm,
        clock=SimulationClock(delta=DELTA),
        warmup_units=4,
        name="p",
    )


def serial_engine(tree, policy="drop", algorithm="ada"):
    engine = DetectionEngine()
    engine.attach_session(serial_session(tree, policy, algorithm))
    return engine


def sharded_engine(tree, policy="drop", algorithm="ada"):
    engine = ShardedDetectionEngine(num_workers=1)
    engine.add_session(
        "p",
        tree,
        make_config(policy),
        algorithm=algorithm,
        clock=SimulationClock(delta=DELTA),
        warmup_units=4,
    )
    return engine


def outcome(units, anomalies, state):
    return (
        units,
        [a.to_dict() for a in anomalies],
        canonical_checkpoint(state),
    )


def session_outcome(session):
    return outcome(session.units_processed, session.anomalies, session.state_dict())


def engine_outcome(engine):
    if isinstance(engine, ShardedDetectionEngine):
        state = engine.merged_session_state("p")
    else:
        state = engine.session("p").state_dict()
    return outcome(engine.units_processed()["p"], engine.anomalies()["p"], state)


class TestEnginesAgreeOnAFailingStream:
    """A lone session, the serial engine and a one-worker sharded engine
    leave the same state behind when ``process_stream`` raises."""

    def test_unknown_stream_key_rejects_its_chunk(self, tree):
        records = stream_records(tree)
        bad = len(records) * 3 // 4
        records[bad] = OperationalRecord.create(
            records[bad].timestamp, records[bad].category, stream="nope"
        )
        outcomes = []
        serial = serial_engine(tree)
        with pytest.raises(StreamError, match="unknown session 'nope'"):
            serial.process_stream(records)
        outcomes.append(engine_outcome(serial))
        with sharded_engine(tree) as sharded:
            with pytest.raises(StreamError, match="unknown session 'nope'"):
                sharded.process_stream(records)
            outcomes.append(engine_outcome(sharded))
        # The record lies in the first chunk, which goes whole or not at all.
        assert outcomes[0][0] == 0
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("algorithm", ["ada", "sta"])
    def test_backwards_jump_keeps_what_came_before(self, tree, algorithm):
        records = stream_records(tree)
        bad = len(records) * 3 // 4
        records.insert(bad, OperationalRecord.create(0.0, records[0].category))

        def stream():
            return InputStream(records)

        session = serial_session(tree, algorithm=algorithm)
        with pytest.raises(StreamError, match="backwards"):
            session.process_stream(stream())
        outcomes = [session_outcome(session)]
        serial = serial_engine(tree, algorithm=algorithm)
        with pytest.raises(StreamError, match="backwards"):
            serial.process_stream(stream())
        outcomes.append(engine_outcome(serial))
        with sharded_engine(tree, algorithm=algorithm) as sharded:
            with pytest.raises(StreamError, match="backwards"):
                sharded.process_stream(stream())
            outcomes.append(engine_outcome(sharded))
        # Everything before the jump was ingested, and nothing flushed.
        reference = serial_session(tree, algorithm=algorithm)
        reference.ingest_batch(records[:bad])
        assert outcomes[0][0] == reference.units_processed > 0
        assert outcomes[0] == session_outcome(reference)
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestRecordFormsAreBatchForms:
    """Every record form leaves what the batch forms leave: results,
    anomalies and checkpoint bytes (minus wall-clock fields)."""

    @staticmethod
    def run(tree, algorithm, policy, feed):
        session = serial_session(tree, policy, algorithm)
        results = feed(session)
        return list(results), session_outcome(session)

    @pytest.mark.parametrize("algorithm", ["ada", "sta"])
    @pytest.mark.parametrize("policy", ["drop", "clamp"])
    def test_record_loop_batch_and_stream_agree(self, tree, algorithm, policy):
        records = stream_records(tree)
        # Late records across a unit boundary, so the policy has work to do.
        records[60:60] = [
            OperationalRecord.create(records[10].timestamp, records[10].category)
        ] * 3

        def record_loop(session):
            out = []
            for record in records:
                out.extend(session.ingest_record(record))
            return out + session.flush()

        def one_batch(session):
            return session.ingest_batch(records) + session.flush()

        def chunked(size):
            return lambda session: session.process_batches(
                iter_record_batches(records, size)
            )

        feeds = [
            record_loop,
            one_batch,
            lambda session: session.process_stream(records),
            lambda session: session.process_stream(iter(records)),
            chunked(1),
            chunked(7),
        ]
        runs = [self.run(tree, algorithm, policy, feed) for feed in feeds]
        assert runs[0][1][0] > 0
        for run in runs[1:]:
            assert run == runs[0]

    def test_late_record_under_raise_leaves_the_batch_state(self, tree):
        records = stream_records(tree, units=12)
        late = OperationalRecord.create(0.0, records[0].category)
        by_record = serial_session(tree, policy="raise")
        for record in records:
            by_record.ingest_record(record)
        with pytest.raises(Exception, match="precedes"):
            by_record.ingest_record(late)
        by_batch = serial_session(tree, policy="raise")
        with pytest.raises(Exception, match="precedes"):
            by_batch.ingest_batch([*records, late])
        assert session_outcome(by_record) == session_outcome(by_batch)

    def test_engine_record_forms_agree(self, tree):
        records = stream_records(tree)
        looped = serial_engine(tree)
        results = []
        for record in records:
            results.extend(looped.ingest_record(record))
        results.extend(looped.flush()["p"])
        streamed = serial_engine(tree)
        assert streamed.process_stream(records)["p"] == results
        batched = serial_engine(tree)
        closed = batched.ingest_batch(records)["p"] + batched.flush()["p"]
        assert closed == results
        assert engine_outcome(looped) == engine_outcome(streamed)
        assert engine_outcome(looped) == engine_outcome(batched)

    def test_dropped_record_closes_nothing(self, tree):
        engine = DetectionEngine(unknown_stream="drop")
        engine.attach_session(serial_session(tree))
        engine.add_session("q", tree, make_config(), clock=SimulationClock(delta=DELTA))
        assert engine.ingest_record(stream_records(tree, stream="nope")[0]) == []
        assert engine.units_processed() == {"p": 0, "q": 0}


class TestNonFiniteTimestampsThroughTheSession:
    """A record with a non-finite timestamp is refused where it is built, so
    a stream that carries one stops there under every out-of-order policy,
    with the rows before it ingested."""

    @pytest.mark.parametrize("policy", ["drop", "clamp", "raise"])
    @pytest.mark.parametrize("stamp", [float("nan"), float("inf"), float("-inf")])
    def test_stream_stops_at_the_bad_row(self, tree, policy, stamp):
        rows = [record.to_dict() for record in stream_records(tree, units=12)]
        bad = len(rows) // 2
        rows[bad]["timestamp"] = stamp
        session = serial_session(tree, policy)
        with pytest.raises(StreamError, match="is not finite"):
            session.process_stream(OperationalRecord.from_dict(row) for row in rows)
        reference = serial_session(tree, policy)
        reference.ingest_batch(OperationalRecord.from_dict(row) for row in rows[:bad])
        assert session.units_processed == reference.units_processed > 0
        assert session_outcome(session) == session_outcome(reference)
