"""Unit tests for :mod:`repro.io.columnar` (the mmap columnar trace format)."""

from __future__ import annotations

import json
import struct

import pytest

from repro.exceptions import StreamError
from repro.io.columnar import (
    COLUMNAR_SUFFIXES,
    VERSION,
    convert_trace,
    main,
    read_batches_columnar,
    read_columnar_header,
    read_trace_batches,
    write_trace_columnar,
)
from repro.io.csv_io import write_records_csv
from repro.io.jsonl_io import write_records_jsonl
from repro.streaming.attributes import EncodedAttributes
from repro.streaming.batch import RecordBatch
from repro.streaming.record import OperationalRecord


def read_rows(path):
    """The records of a columnar trace, flattened from its batches."""
    return [record for batch in read_batches_columnar(path) for record in batch]


def sample_records(n=10, attrs=False):
    records = []
    for i in range(n):
        category = ("region", f"site-{i % 3}")
        if attrs and i % 2:
            records.append(
                OperationalRecord.create(float(i), category, stream=f"s{i}")
            )
        else:
            records.append(OperationalRecord.create(float(i), category))
    return records


class TestRoundTrip:
    def test_records_round_trip(self, tmp_path):
        path = tmp_path / "trace.rcol"
        records = sample_records(25)
        assert write_trace_columnar(records, path) == 25
        assert read_rows(path) == records

    def test_attributes_round_trip(self, tmp_path):
        path = tmp_path / "trace.rcol"
        records = sample_records(12, attrs=True)
        write_trace_columnar(records, path)
        restored = read_rows(path)
        assert restored == records
        assert restored[1].attributes == {"stream": "s1"}

    def test_attribute_free_trace_drops_the_column(self, tmp_path):
        path = tmp_path / "trace.rcol"
        write_trace_columnar(sample_records(6), path)
        header = read_columnar_header(path)
        assert "attr_blob" not in header["columns"]
        [batch] = list(read_batches_columnar(path, batch_size=64))
        assert batch.attributes is None

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.rcol"
        assert write_trace_columnar([], path) == 0
        assert read_rows(path) == []


class TestBatches:
    def test_batch_size_chunking(self, tmp_path):
        path = tmp_path / "trace.rcol"
        write_trace_columnar(sample_records(23), path)
        batches = list(read_batches_columnar(path, batch_size=10))
        assert [len(b) for b in batches] == [10, 10, 3]

    def test_dictionary_shared_across_batches(self, tmp_path):
        path = tmp_path / "trace.rcol"
        write_trace_columnar(sample_records(20), path)
        batches = list(read_batches_columnar(path, batch_size=7))
        assert all(
            b.code_dictionary is batches[0].code_dictionary for b in batches[1:]
        )

    def test_bad_batch_size(self, tmp_path):
        path = tmp_path / "trace.rcol"
        write_trace_columnar(sample_records(3), path)
        with pytest.raises(StreamError):
            list(read_batches_columnar(path, batch_size=0))


class TestConvertAndDispatch:
    def test_convert_from_jsonl_preserves_records(self, tmp_path):
        records = sample_records(40, attrs=True)
        jsonl = tmp_path / "trace.jsonl"
        rcol = tmp_path / "trace.rcol"
        write_records_jsonl(records, jsonl)
        assert convert_trace(jsonl, rcol) == 40
        assert read_rows(rcol) == records

    def test_dispatch_by_suffix(self, tmp_path):
        records = sample_records(8)
        jsonl = tmp_path / "trace.jsonl"
        write_records_jsonl(records, jsonl)
        for suffix in COLUMNAR_SUFFIXES:
            target = tmp_path / f"trace{suffix}"
            convert_trace(jsonl, target)
            batches = list(read_trace_batches(target, batch_size=64))
            assert [r for b in batches for r in b] == records

    def test_unknown_suffix_raises(self, tmp_path):
        with pytest.raises(StreamError):
            read_trace_batches(tmp_path / "trace.parquet")

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "trace.rcol"
        write_trace_columnar(sample_records(10), path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(StreamError):
            read_columnar_header(path)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "trace.rcol"
        write_trace_columnar(sample_records(4), path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StreamError):
            read_columnar_header(path)


    def test_dispatch_reads_csv(self, tmp_path):
        records = sample_records(9)
        path = tmp_path / "trace.csv"
        write_records_csv(records, path)
        batches = list(read_trace_batches(path, batch_size=4))
        assert [len(b) for b in batches] == [4, 4, 1]
        assert [r for b in batches for r in b] == records


#: ``<5sBBI``: magic, major, minor, header length.
PREAMBLE = struct.Struct("<5sBBI")


def rewrite_header(path, edit):
    """Replace a columnar file's JSON header in place, padded to its old
    length so every section offset stays valid.  ``edit`` receives the
    header's bytes and returns the new ones."""
    data = bytearray(path.read_bytes())
    _, _, _, header_len = PREAMBLE.unpack_from(data)
    start = PREAMBLE.size
    edited = edit(bytes(data[start : start + header_len]))
    assert len(edited) <= header_len
    data[start : start + header_len] = edited.ljust(header_len, b" ")
    path.write_bytes(bytes(data))


def edit_header_json(edit):
    def apply(raw):
        header = json.loads(raw.decode("utf-8"))
        edit(header)
        return json.dumps(header).encode("utf-8")

    return apply


class TestHeaderRefusals:
    """Every structural check of the preamble and header raises a
    :class:`StreamError` naming the file."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "trace.rcol"
        write_trace_columnar(sample_records(6), path)
        return path

    def test_truncated_preamble(self, tmp_path):
        path = tmp_path / "stub.rcol"
        path.write_bytes(b"\x93RC")
        with pytest.raises(StreamError, match="truncated preamble"):
            read_columnar_header(path)

    def test_unsupported_major_version(self, path):
        data = bytearray(path.read_bytes())
        data[5] = VERSION[0] + 1
        path.write_bytes(bytes(data))
        with pytest.raises(StreamError, match=f"version {VERSION[0] + 1}.{VERSION[1]}"):
            read_columnar_header(path)

    def test_a_newer_minor_version_still_reads(self, path):
        data = bytearray(path.read_bytes())
        data[6] = VERSION[1] + 1
        path.write_bytes(bytes(data))
        assert read_rows(path) == sample_records(6)

    @pytest.mark.parametrize(
        "first_byte", [b"\xff", b"!"], ids=["not-utf8", "not-json"]
    )
    def test_malformed_header(self, path, first_byte):
        rewrite_header(path, lambda raw: first_byte + raw[1:])
        with pytest.raises(StreamError, match="malformed columnar header"):
            read_columnar_header(path)

    @pytest.mark.parametrize("key", ["count", "dictionary", "columns"])
    def test_header_missing_key(self, path, key):
        rewrite_header(path, edit_header_json(lambda header: header.pop(key)))
        with pytest.raises(StreamError, match=f"missing '{key}'"):
            read_columnar_header(path)

    def test_empty_dictionary_category(self, path):
        def empty_first(header):
            header["dictionary"][0] = []

        rewrite_header(path, edit_header_json(empty_first))
        with pytest.raises(StreamError, match="empty category"):
            list(read_batches_columnar(path))

    @pytest.mark.parametrize("code", [-1, 3], ids=["negative", "past-the-end"])
    def test_category_code_out_of_dictionary_range(self, path, code):
        header = read_columnar_header(path)
        assert len(header["dictionary"]) == 3
        data = bytearray(path.read_bytes())
        struct.pack_into("<i", data, header["columns"]["codes"]["offset"] + 4, code)
        path.write_bytes(bytes(data))
        with pytest.raises(StreamError, match="out of dictionary range"):
            list(read_batches_columnar(path))


def patch_section(path, column, edit):
    """Rewrite one section of a columnar file in place: ``edit`` receives the
    section's bytes (``attr_offsets`` as a list of ints) and returns them."""
    header = read_columnar_header(path)
    data = bytearray(path.read_bytes())
    spec = header["columns"][column]
    if column == "attr_offsets":
        count = header["count"] + 1
        fmt = f"<{count}q"
        values = list(struct.unpack_from(fmt, data, spec["offset"]))
        struct.pack_into(fmt, data, spec["offset"], *edit(values))
    else:
        raw = bytes(data[spec["offset"] : spec["offset"] + spec["size"]])
        edited = edit(raw)
        assert len(edited) == len(raw)
        data[spec["offset"] : spec["offset"] + spec["size"]] = edited
    path.write_bytes(bytes(data))


class TestAttributesSection:
    """The encoded column: lazy rows, structure checked at open, row JSON
    checked when the row is read."""

    def test_reader_hands_over_the_encoded_column(self, tmp_path):
        path = tmp_path / "trace.rcol"
        records = sample_records(30, attrs=True)
        write_trace_columnar(records, path)
        batches = list(read_batches_columnar(path, batch_size=7))
        assert all(isinstance(b.attributes, EncodedAttributes) for b in batches)
        assert [r for b in batches for r in b] == records
        # Every batch windows the one blob read at open.
        assert len({id(b.attributes._blob) for b in batches}) == 1

    def test_all_empty_batches_still_get_none(self, tmp_path):
        path = tmp_path / "trace.rcol"
        records = sample_records(20)
        records[13] = OperationalRecord.create(13.0, ("region", "site-1"), k=1)
        write_trace_columnar(records, path)
        batches = list(read_batches_columnar(path, batch_size=5))
        assert [b.attributes is None for b in batches] == [True, True, False, True]

    def test_convert_rcol_to_rcol_is_byte_identical(self, tmp_path):
        source, target = tmp_path / "a.rcol", tmp_path / "b.rcol"
        write_trace_columnar(sample_records(40, attrs=True), source)
        # A foreign writer's spelling must survive: rows pass through as
        # bytes, they are not decoded and re-dumped.
        patch_section(
            source,
            "attr_blob",
            lambda raw: raw.replace(b'{"stream": "s1"}', b'{ "stream":"s1"}'),
        )
        assert convert_trace(source, target, batch_size=9) == 40
        assert target.read_bytes() == source.read_bytes()

    def test_mixed_sources_keep_every_row(self, tmp_path):
        records = sample_records(12, attrs=True)
        first = tmp_path / "a.rcol"
        write_trace_columnar(records[:6], first)
        encoded = list(read_batches_columnar(first))[0]
        decoded = RecordBatch.from_records(records[6:9])
        target = tmp_path / "b.rcol"
        assert write_trace_columnar([encoded, decoded, *records[9:]], target) == 12
        assert read_rows(target) == records

    @pytest.mark.parametrize(
        "edit",
        [
            lambda offsets: [1] + offsets[1:],  # does not start at 0
            lambda offsets: offsets[:-1] + [offsets[-1] + 5],  # past the blob
            lambda offsets: offsets[:-1] + [offsets[-1] - 1],  # short of it
            lambda offsets: offsets[:2] + [offsets[1] - 1] + offsets[3:],  # decreasing
            lambda offsets: [0, -4] + offsets[2:],
        ],
        ids=["first-nonzero", "last-past-blob", "last-short", "decreasing", "negative"],
    )
    def test_bad_offsets_are_refused_at_open(self, tmp_path, edit):
        # Parent: silent garbage slices (or a raw JSONDecodeError later on).
        path = tmp_path / "trace.rcol"
        write_trace_columnar(sample_records(12, attrs=True), path)
        patch_section(path, "attr_offsets", edit)
        with pytest.raises(StreamError, match="corrupt attributes section"):
            next(read_batches_columnar(path))

    def test_blob_outside_the_file_is_refused_at_open(self, tmp_path):
        path = tmp_path / "trace.rcol"
        write_trace_columnar(sample_records(12, attrs=True), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(StreamError, match="corrupt attributes section"):
            next(read_batches_columnar(path))

    @pytest.mark.parametrize(
        "garbage, complaint",
        [
            (b'{"stream": "s1" ', "malformed attributes"),  # truncated JSON
            (b'{"stream": "\xff1"}', "malformed attributes"),  # not UTF-8
            (b'["stream", "s1"]', "must be a JSON object"),
        ],
    )
    def test_a_bad_row_raises_streamerror_naming_file_and_row(
        self, tmp_path, garbage, complaint
    ):
        # Parent: a raw JSONDecodeError / UnicodeDecodeError, for every
        # reader of the batch.  Now: a StreamError, when that row is read.
        path = tmp_path / "trace.rcol"
        write_trace_columnar(sample_records(12, attrs=True), path)
        good = b'{"stream": "s1"}'
        assert len(garbage) == len(good)
        patch_section(path, "attr_blob", lambda raw: raw.replace(good, garbage))
        [batch] = list(read_batches_columnar(path))  # opens: structure is fine
        assert batch.attributes[3] == {"stream": "s3"}
        with pytest.raises(StreamError, match=rf"{path}: row 1: .*{complaint}"):
            batch.attributes[1]
        with pytest.raises(StreamError, match="row 1"):
            read_rows(path)


class TestWriterByteParity:
    """The file depends only on the rows: records, batches whatever their
    dictionaries hold and in whatever order, and encoded attribute columns
    write the same bytes."""

    @staticmethod
    def write(tmp_path, source, name):
        path = tmp_path / f"{name}.rcol"
        write_trace_columnar(source, path)
        return path.read_bytes()

    @staticmethod
    def foreign_batch(records, dictionary):
        """``records`` as one batch coded over ``dictionary``."""
        return RecordBatch.from_dictionary_codes(
            [r.timestamp for r in records],
            [dictionary.index(r.category) for r in records],
            dictionary,
            [dict(r.attributes) for r in records],
        )

    def test_a_foreign_dictionary_writes_the_records_bytes(self, tmp_path):
        records = [
            OperationalRecord.create(1.0, ("a", "y")),
            OperationalRecord.create(2.0, ("b", "x")),
            OperationalRecord.create(3.0, ("a", "y")),
        ]
        batch = self.foreign_batch(records, [("z",), ("b", "x"), ("a", "y")])
        expected = self.write(tmp_path, records, "records")
        # A lone batch, and a batch as one item of a batch stream.
        assert self.write(tmp_path, batch, "batch") == expected
        assert self.write(tmp_path, [batch], "batches") == expected
        header = read_columnar_header(tmp_path / "batches.rcol")
        assert header["dictionary"] == [["a", "y"], ["b", "x"]]

    def test_every_source_writes_the_records_bytes(self, tmp_path):
        records = sample_records(12, attrs=True)
        expected = self.write(tmp_path, records, "records")
        distinct = sorted({r.category for r in records}, reverse=True)
        shared = self.foreign_batch(records, [("unused",), *distinct, ("spare",)])
        encoded = list(read_batches_columnar(tmp_path / "records.rcol", batch_size=5))
        assert isinstance(encoded[0].attributes, EncodedAttributes)
        sources = {
            "one-batch": RecordBatch.from_records(records),
            "shared-dictionary": [shared.slice(0, 5), shared.slice(5, 12)],
            "distinct-dictionaries": [
                RecordBatch.from_records(records[:7]),
                RecordBatch.from_records(records[7:]),
            ],
            "encoded": encoded,
            "mixed": [encoded[0], shared.slice(5, 9), *records[9:]],
        }
        for name, source in sources.items():
            assert self.write(tmp_path, source, name) == expected, name

    def test_slice_and_take_write_their_records_bytes(self, tmp_path):
        records = sample_records(12, attrs=True)
        batch = self.foreign_batch(records, [("unused",), *{r.category for r in records}])
        assert self.write(tmp_path, batch[3:10], "slice") == self.write(
            tmp_path, records[3:10], "slice-records"
        )
        order = [7, 2, 2, 11, 0]
        assert self.write(tmp_path, batch.take(order), "take") == self.write(
            tmp_path, [records[i] for i in order], "take-records"
        )


class TestCli:
    def test_convert_and_info(self, tmp_path, capsys):
        records = sample_records(15, attrs=True)
        jsonl = tmp_path / "trace.jsonl"
        rcol = tmp_path / "trace.rcol"
        write_records_jsonl(records, jsonl)
        assert main(["convert", str(jsonl), str(rcol)]) == 0
        out = capsys.readouterr().out
        assert "15 records" in out
        assert main(["info", str(rcol)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["count"] == 15
        assert summary["has_attributes"] is True
        assert summary["dictionary_size"] == 3
