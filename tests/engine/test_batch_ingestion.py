"""Columnar batch ingestion at the session and engine level.

The contract under test: ``ingest_record_batch`` / ``process_batches`` must be
*semantically indistinguishable* from feeding the same records one at a time —
including every out-of-order policy decision and engine routing choice.
"""

import pytest

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.engine.engine import DetectionEngine
from repro.engine.session import DetectionSession
from repro.exceptions import OutOfOrderRecordError, StreamError
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.batch import RecordBatch, iter_record_batches
from repro.streaming.record import OperationalRecord


def rec(ts, label="site-00", **attrs):
    return OperationalRecord.create(ts, ("region-0", label), **attrs)


def make_config(policy="raise"):
    return TiresiasConfig(
        theta=1.0,
        ratio_threshold=2.0,
        difference_threshold=4.0,
        delta_seconds=10.0,
        window_units=8,
        reference_levels=0,
        out_of_order_policy=policy,
        forecast=ForecastConfig(season_lengths=(4,), fallback_alpha=0.3),
    )


def make_session(small_tree, policy="raise"):
    return DetectionSession(small_tree, make_config(policy), warmup_units=0)


def pending_counts(session):
    return {tuple(path): count for path, count in session.state_dict()["pending"]}


class TestSessionBatchIngestion:
    def test_batch_equals_per_record(self, small_tree):
        records = [rec(float(t)) for t in (1, 2, 12, 13, 31, 45)]
        one = make_session(small_tree)
        res_one = one.ingest_batch(records) + one.flush()
        batched = make_session(small_tree)
        res_batch = (
            batched.ingest_record_batch(RecordBatch.from_records(records))
            + batched.flush()
        )
        assert res_batch == res_one

    def test_process_batches_equals_process_stream(self, small_tree):
        records = [rec(float(t), f"site-0{t % 4}") for t in range(0, 120, 3)]
        one = make_session(small_tree)
        res_one = one.process_stream(iter(records))
        batched = make_session(small_tree)
        res_batch = batched.process_batches(iter_record_batches(records, 7))
        assert res_batch == res_one
        assert batched.units_processed == one.units_processed

    def test_clamp_splits_batch_instead_of_clamping_it(self, small_tree):
        """A batch spanning an already-closed timeunit must split: only the
        late run is clamped into the open timeunit, records before and after
        it land in their own units."""
        records = [
            rec(5.0, "site-00"),   # unit 0
            rec(25.0, "site-01"),  # unit 2 -> closes units 0 and 1
            rec(3.0, "site-02"),   # late run (unit 0): clamp into open unit 2
            rec(26.0, "site-03"),  # back to the open unit 2
        ]
        session = make_session(small_tree, policy="clamp")
        closed = session.ingest_record_batch(RecordBatch.from_records(records))
        assert [r.timeunit for r in closed] == [0, 1]
        assert closed[0].actuals[()] == 1.0  # unit 0 kept its own record
        assert closed[1].actuals[()] == 0.0  # unit 1 stayed empty
        # The open unit got the clamped late record AND its own records —
        # nothing else from the batch was clamped.
        assert pending_counts(session) == {
            ("region-0", "site-01"): 1,
            ("region-0", "site-02"): 1,
            ("region-0", "site-03"): 1,
        }

    @pytest.mark.parametrize("policy", ["drop", "clamp"])
    def test_policies_match_per_record_path(self, small_tree, policy):
        records = [
            rec(5.0), rec(25.0, "site-01"), rec(3.0, "site-02"),
            rec(26.0, "site-03"), rec(14.0, "site-01"), rec(38.0),
        ]
        one = make_session(small_tree, policy)
        res_one = one.ingest_batch(records)
        batched = make_session(small_tree, policy)
        res_batch = batched.ingest_record_batch(RecordBatch.from_records(records))
        assert res_batch == res_one
        assert pending_counts(batched) == pending_counts(one)
        assert res_batch + batched.flush() == res_one + one.flush()

    def test_raise_policy_raises_on_late_run(self, small_tree):
        session = make_session(small_tree, policy="raise")
        batch = RecordBatch.from_records([rec(5.0), rec(25.0), rec(3.0)])
        with pytest.raises(OutOfOrderRecordError):
            session.ingest_record_batch(batch)

    def test_empty_batch_is_a_noop(self, small_tree):
        session = make_session(small_tree)
        assert session.ingest_record_batch(RecordBatch.empty()) == []
        assert session.units_processed == 0


@pytest.fixture
def two_stream_engine(small_tree, deep_tree):
    engine = DetectionEngine(unknown_stream="drop")
    engine.add_session("ccd", small_tree, make_config(), warmup_units=0)
    deep_config = make_config()
    engine.add_session("scd", deep_tree, deep_config, warmup_units=0)
    return engine


def tagged_records():
    out = []
    for t in range(0, 100, 2):
        out.append(OperationalRecord.create(
            float(t), ("region-1", "site-10"), stream="ccd"))
        if t % 6 == 0:
            out.append(OperationalRecord.create(
                float(t) + 0.5, ("vho-0", "io-00", "co-000", "dslam-0000"),
                stream="scd"))
        if t % 10 == 0:
            out.append(OperationalRecord.create(
                float(t) + 0.7, ("region-2", "site-20"), stream="mystery"))
    return out


class TestEngineBatchRouting:
    def test_batch_routing_matches_per_record(self, small_tree, deep_tree):
        records = tagged_records()

        def build():
            engine = DetectionEngine(unknown_stream="drop")
            engine.add_session("ccd", small_tree, make_config(), warmup_units=0)
            engine.add_session("scd", deep_tree, make_config(), warmup_units=0)
            return engine

        one = build()
        res_one = one.process_stream(iter(records))
        batched = build()
        res_batch = batched.process_batches(iter_record_batches(records, 9))
        assert res_batch == res_one
        assert batched.units_processed() == one.units_processed()

    def test_unkeyed_batch_falls_through_to_single_session(self, small_tree):
        engine = DetectionEngine()
        engine.add_session("only", small_tree, make_config(), warmup_units=0)
        batch = RecordBatch.from_records([rec(1.0), rec(2.0), rec(15.0)])
        closed = engine.ingest_record_batch(batch)
        assert list(closed) == ["only"]
        assert [r.timeunit for r in closed["only"]] == [0]

    def test_unknown_key_raises_by_default(self, small_tree, deep_tree):
        engine = DetectionEngine()
        engine.add_session("ccd", small_tree, make_config(), warmup_units=0)
        engine.add_session("scd", deep_tree, make_config(), warmup_units=0)
        batch = RecordBatch.from_records(
            [OperationalRecord.create(1.0, ("region-0", "site-00"), stream="nope")]
        )
        with pytest.raises(StreamError):
            engine.ingest_record_batch(batch)

    def test_unknown_key_rejects_whole_batch_without_side_effects(self, small_tree):
        """Keys are validated before any partition is ingested: an unknown key
        under the "raise" policy leaves every session untouched."""
        engine = DetectionEngine()
        engine.add_session("ccd", small_tree, make_config(), warmup_units=0)
        engine.add_session("scd", small_tree, make_config(), warmup_units=0)
        batch = RecordBatch.from_records([
            OperationalRecord.create(1.0, ("region-0", "site-00"), stream="ccd"),
            OperationalRecord.create(2.0, ("region-0", "site-01"), stream="nope"),
            OperationalRecord.create(45.0, ("region-0", "site-02"), stream="ccd"),
        ])
        with pytest.raises(StreamError):
            engine.ingest_record_batch(batch)
        assert engine.units_processed() == {"ccd": 0, "scd": 0}
        assert pending_counts(engine.session("ccd")) == {}

    def test_custom_stream_key_selector(self, small_tree, deep_tree):
        engine = DetectionEngine(
            stream_key=lambda r: "scd" if r.category[0].startswith("vho") else "ccd",
            unknown_stream="drop",
        )
        engine.add_session("ccd", small_tree, make_config(), warmup_units=0)
        engine.add_session("scd", deep_tree, make_config(), warmup_units=0)
        batch = RecordBatch.from_records([
            OperationalRecord.create(1.0, ("region-0", "site-00")),
            OperationalRecord.create(2.0, ("vho-0", "io-00", "co-000", "dslam-0000")),
        ])
        engine.ingest_record_batch(batch)
        engine.flush()
        assert engine.units_processed() == {"ccd": 1, "scd": 1}
