"""Unit tests for :mod:`repro.streaming.record`."""

import pickle

import pytest

from repro.exceptions import StreamError
from repro.streaming.record import OperationalRecord


class TestConstruction:
    def test_create_normalizes_category_to_tuple(self):
        record = OperationalRecord.create(10.0, ["tv", "no-service"])
        assert record.category == ("tv", "no-service")
        assert record.timestamp == 10.0

    def test_constructor_normalizes_a_list_category(self):
        record = OperationalRecord(1.0, ["tv", "no-service"])
        assert record.category == ("tv", "no-service")
        assert hash(record) == hash(OperationalRecord(1.0, ("tv", "no-service")))

    def test_empty_category_rejected(self):
        with pytest.raises(StreamError):
            OperationalRecord(1.0, ())

    def test_attributes_are_kept(self):
        record = OperationalRecord.create(5.0, ("tv",), customer="c123", injected=True)
        assert record.attributes["customer"] == "c123"
        assert record.attributes["injected"] is True

    def test_ordering_by_timestamp(self):
        early = OperationalRecord.create(1.0, ("a",))
        late = OperationalRecord.create(2.0, ("b",))
        assert sorted([late, early]) == [early, late]


class TestEqualityAndOrder:
    """Equality reads every field, the hash the timestamp and category, and
    ordering the timestamp alone."""

    def test_equality_compares_all_three_fields(self):
        record = OperationalRecord(1.0, ("a",), {"x": 1})
        assert record == OperationalRecord(1.0, ("a",), {"x": 1})
        assert record != OperationalRecord(1.0, ("b",), {"x": 1})
        assert record != OperationalRecord(1.0, ("a",), {"x": 2})
        assert record != OperationalRecord(1.0, ("a",))
        assert record != OperationalRecord(2.0, ("a",), {"x": 1})
        assert OperationalRecord(1.0, ("a",)) != OperationalRecord(1.0, ("b",), {"x": 1})
        assert record != (1.0, ("a",), {"x": 1})

    def test_hash_covers_timestamp_and_category(self):
        same = {OperationalRecord(1.0, ("a",)), OperationalRecord(1.0, ("a",))}
        assert len(same) == 1
        assert len({OperationalRecord(1.0, ("a",)), OperationalRecord(1.0, ("b",))}) == 2
        first, second = OperationalRecord(1.0, ("a",), {"x": 1}), OperationalRecord(1.0, ("a",))
        assert hash(first) == hash(second) and first != second
        assert len({first, second}) == 2

    def test_ordering_reads_the_timestamp_only(self):
        a = OperationalRecord(1.0, ("z",), {"k": 9})
        b = OperationalRecord(1.0, ("a",))
        assert not a < b and not b < a
        assert a <= b and b <= a and a >= b and b >= a
        assert OperationalRecord(0.5, ("z",)) < b
        assert b > OperationalRecord(0.5, ("z",))

    def test_equal_timestamps_keep_input_order_when_sorted(self):
        records = [
            OperationalRecord(2.0, ("c",)),
            OperationalRecord(1.0, ("b",)),
            OperationalRecord(2.0, ("a",)),
            OperationalRecord(1.0, ("d",), {"n": 1}),
            OperationalRecord(1.0, ("a",)),
        ]
        ordered = sorted(records)
        assert [r.category for r in ordered] == [("b",), ("d",), ("a",), ("c",), ("a",)]
        assert ordered == sorted(records, key=lambda r: r.timestamp)

    def test_pickles_and_has_no_instance_dict(self):
        record = OperationalRecord(3.0, ("a", "b"), {"x": [1]})
        assert pickle.loads(pickle.dumps(record)) == record
        assert not hasattr(record, "__dict__")


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteTimestamp:
    """A non-finite timestamp is refused where the record is built, with the
    message a trace reader gives for such a row."""

    @pytest.mark.parametrize("stamp", NON_FINITE)
    def test_constructor(self, stamp):
        with pytest.raises(StreamError, match="is not finite"):
            OperationalRecord(stamp, ("a",))

    @pytest.mark.parametrize("stamp", NON_FINITE)
    def test_create(self, stamp):
        with pytest.raises(StreamError, match="is not finite"):
            OperationalRecord.create(stamp, ["a"])

    @pytest.mark.parametrize(
        "stamp", [*NON_FINITE, "nan", "-Infinity"], ids=repr
    )
    def test_from_dict(self, stamp):
        with pytest.raises(StreamError, match="is not finite"):
            OperationalRecord.from_dict({"timestamp": stamp, "category": ["a"]})

    def test_finite_timestamps_pass(self):
        assert OperationalRecord(0, ("a",)).timestamp == 0
        assert OperationalRecord.create(-1e300, ["a"]).timestamp == -1e300


class TestSerialization:
    def test_round_trip(self):
        record = OperationalRecord.create(7.5, ("tv", "down"), customer="c1")
        restored = OperationalRecord.from_dict(record.to_dict())
        assert restored.timestamp == record.timestamp
        assert restored.category == record.category
        assert restored.attributes == dict(record.attributes)

    def test_from_dict_defaults_attributes(self):
        restored = OperationalRecord.from_dict({"timestamp": 1, "category": ["x"]})
        assert restored.attributes == {}
