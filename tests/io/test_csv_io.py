"""Unit tests for :mod:`repro.io.csv_io`."""

import pytest

from repro.exceptions import StreamError
from repro.io.csv_io import read_batches_csv, read_records_csv, write_records_csv
from repro.streaming.record import OperationalRecord


def sample_records():
    return [
        OperationalRecord.create(10.0, ("tv", "no-service", "no-pic")),
        OperationalRecord.create(20.5, ("internet",)),
        OperationalRecord.create(30.25, ("tv", "pixelation")),
    ]


class TestRoundTrip:
    def test_round_trip_preserves_time_and_category(self, tmp_path):
        path = tmp_path / "trace.csv"
        written = write_records_csv(sample_records(), path)
        assert written == 3
        restored = list(read_records_csv(path))
        assert [(r.timestamp, r.category) for r in restored] == [
            (r.timestamp, r.category) for r in sample_records()
        ]

    def test_max_depth_truncates_categories(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_records_csv(sample_records(), path, max_depth=2)
        restored = list(read_records_csv(path))
        assert restored[0].category == ("tv", "no-service")

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_records_csv([], path) == 0
        assert list(read_records_csv(path)) == []


class TestErrors:
    def test_missing_timestamp_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(StreamError):
            list(read_records_csv(path))

    def test_row_without_category_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,level1\n5.0,\n")
        with pytest.raises(StreamError):
            list(read_records_csv(path))


class TestBatchLoader:
    def test_batches_match_record_reader(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_records_csv(sample_records(), path)
        rows = [(r.timestamp, r.category) for r in read_records_csv(path)]
        batches = list(read_batches_csv(path, batch_size=2))
        assert [len(b) for b in batches] == [2, 1]
        assert [
            (r.timestamp, r.category) for b in batches for r in b
        ] == rows

    def test_write_accepts_a_record_batch(self, tmp_path):
        from repro.streaming.batch import RecordBatch

        path = tmp_path / "trace.csv"
        batch = RecordBatch.from_records(sample_records())
        assert write_records_csv(batch, path) == 3
        assert len(list(read_batches_csv(path))) == 1

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records_csv([], path)
        assert list(read_batches_csv(path)) == []

    def test_missing_timestamp_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(StreamError):
            list(read_batches_csv(path))

    def test_row_without_category_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,level1\n5.0,\n")
        with pytest.raises(StreamError):
            list(read_batches_csv(path))

    def test_invalid_batch_size(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_records_csv(sample_records(), path)
        with pytest.raises(StreamError):
            list(read_batches_csv(path, batch_size=0))

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-Infinity", "soon", ""])
    def test_non_finite_timestamp_rejected_with_row_number(self, tmp_path, stamp):
        path = tmp_path / "bad.csv"
        path.write_text(f"timestamp,level1\n5.0,a\n{stamp},a\n")
        with pytest.raises(StreamError, match=f"{path}:3: "):
            list(read_batches_csv(path))


class TestReadersAgree:
    """``read_records_csv`` reads through ``read_batches_csv``: a row one
    refuses, the other refuses with the same message."""

    @pytest.mark.parametrize(
        "bad_row", ["nan,a", "inf,a", "-Infinity,a", "5.0,", "5.0"]
    )
    def test_bad_row_refused_by_both_with_one_message(self, tmp_path, bad_row):
        path = tmp_path / "t.csv"
        path.write_text(f"timestamp,level1\n4.0,a\n{bad_row}\n6.0,b\n")
        with pytest.raises(StreamError, match=f"{path}:3: ") as by_batches:
            list(read_batches_csv(path))
        with pytest.raises(StreamError) as by_records:
            list(read_records_csv(path))
        assert str(by_records.value) == str(by_batches.value)

    def test_blank_lines_skipped_by_both(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,level1\n4.0,a\n\n6.0,b\n\n")
        rows = [(r.timestamp, r.category) for r in read_records_csv(path)]
        assert rows == [(4.0, ("a",)), (6.0, ("b",))]
        assert [
            (r.timestamp, r.category) for b in read_batches_csv(path) for r in b
        ] == rows
