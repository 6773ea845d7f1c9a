"""Unit tests for :mod:`repro.streaming.record`."""

import pytest

from repro.exceptions import StreamError
from repro.streaming.record import OperationalRecord


class TestConstruction:
    def test_create_normalizes_category_to_tuple(self):
        record = OperationalRecord.create(10.0, ["tv", "no-service"])
        assert record.category == ("tv", "no-service")
        assert record.timestamp == 10.0

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

    def test_with_category_keeps_time_and_attributes(self):
        record = OperationalRecord.create(3.0, ("a",), note="x")
        moved = record.with_category(("b", "c"))
        assert moved.timestamp == 3.0
        assert moved.category == ("b", "c")
        assert moved.attributes["note"] == "x"


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
