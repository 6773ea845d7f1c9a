"""Unit tests for :mod:`repro.io.jsonl_io`."""

import pytest

from repro.exceptions import StreamError
from repro.io.jsonl_io import (
    READ_BLOCK_BYTES,
    read_batches_jsonl,
    read_records_jsonl,
    write_records_jsonl,
)
from repro.streaming.record import OperationalRecord


def sample_records():
    return [
        OperationalRecord.create(1.5, ("a", "a1"), injected=True, label="x"),
        OperationalRecord.create(2.5, ("b",), customer="c42"),
    ]


def rows(records):
    """Full row tuples (record equality alone compares only timestamps)."""
    return [(r.timestamp, r.category, dict(r.attributes)) for r in records]


class TestRoundTrip:
    def test_round_trip_preserves_attributes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = write_records_jsonl(sample_records(), path)
        assert written == 2
        restored = list(read_records_jsonl(path))
        assert restored[0].attributes == {"injected": True, "label": "x"}
        assert restored[1].attributes == {"customer": "c42"}
        assert [r.category for r in restored] == [("a", "a1"), ("b",)]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(sample_records(), path)
        path.write_text(path.read_text() + "\n\n")
        assert len(list(read_records_jsonl(path))) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_records_jsonl([], path)
        assert list(read_records_jsonl(path)) == []


class TestBatchLoader:
    def test_batches_preserve_attributes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(sample_records(), path)
        [batch] = list(read_batches_jsonl(path))
        assert list(batch) == sample_records()
        assert batch.record(0).attributes == {"injected": True, "label": "x"}

    def test_attribute_free_trace_drops_the_column(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(
            [OperationalRecord.create(1.0, ("a",)), OperationalRecord.create(2.0, ("b",))],
            path,
        )
        [batch] = list(read_batches_jsonl(path))
        assert batch.attributes is None

    def test_chunking_and_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(sample_records(), path)
        path.write_text(path.read_text() + "\n\n")
        batches = list(read_batches_jsonl(path, batch_size=1))
        assert [len(b) for b in batches] == [1, 1]

    def test_invalid_json_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"timestamp": 1, "category": ["a"]}\nnot-json\n')
        with pytest.raises(StreamError, match="2"):
            list(read_batches_jsonl(path))

    def test_empty_category_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"timestamp": 1, "category": []}\n')
        with pytest.raises(StreamError):
            list(read_batches_jsonl(path))

    def test_invalid_batch_size(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(sample_records(), path)
        with pytest.raises(StreamError):
            list(read_batches_jsonl(path, batch_size=0))

    def test_a_file_of_many_blocks_reads_like_one(self, tmp_path):
        """The reader hands the decoder 64 KiB at a time; lines that straddle
        a block edge (CRLF ones too) come out whole and in order."""
        records = [
            OperationalRecord.create(float(i), ("a", f"leaf-{i % 7}"), n=i)
            for i in range(4000)
        ]
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(records, path)
        assert path.stat().st_size > 3 * READ_BLOCK_BYTES
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        batches = list(read_batches_jsonl(path, batch_size=1500))
        assert [len(b) for b in batches] == [1500, 1500, 1000]
        assert rows(r for b in batches for r in b) == rows(records)
        assert rows(read_records_jsonl(path)) == rows(records)

    @pytest.mark.parametrize(
        "bad_row",
        [
            '{"timestamp": NaN, "category": ["a"]}',
            '{"timestamp": "inf", "category": ["a"]}',
            '{"timestamp": 1, "category": "TV"}',
            '{"timestamp": 1}',
            '{"timestamp": 1, "category": ["a"], "attributes": [1, 2]}',
            '{"timestamp": 1, "category": [["a"]]}',
            # json.loads raises RecursionError here, not a ValueError.
            '{"timestamp": 1, "category": ["a"], "attributes": {"n": '
            + "[" * 100_000 + "]" * 100_000 + "}}",
        ],
    )
    def test_bad_values_name_the_file_and_line(self, tmp_path, bad_row):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"timestamp": 1, "category": ["a"]}\n\n' + bad_row + "\n")
        for reader in (read_batches_jsonl, read_records_jsonl):
            with pytest.raises(StreamError, match=f"{path}:3: "):
                list(reader(path))

    def test_integers_past_64_bits_stay_integers(self, tmp_path):
        """Labels and attribute values of 19 and more digits come back as
        the integers ``json.loads`` reads, not as nearby floats."""
        values = [2**63, -(2**63) - 1, 2**64, 10**25]
        records = [
            OperationalRecord.create(float(i), ("a", value), n=value)
            for i, value in enumerate(values)
        ]
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(records, path)
        restored = list(read_records_jsonl(path))
        assert [r.category[1] for r in restored] == values
        assert [r.attributes["n"] for r in restored] == values
        assert all(
            type(r.category[1]) is type(r.attributes["n"]) is int for r in restored
        )


class TestErrors:
    def test_invalid_json_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"timestamp": 1, "category": ["a"]}\nnot-json\n')
        with pytest.raises(StreamError, match="2"):
            list(read_records_jsonl(path))
