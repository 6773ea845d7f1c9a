"""Memory-mapped columnar trace format (``.rcol``).

The line formats (CSV / JSONL) pay a per-line parse on every read; the
columnar format pays it once, at conversion time.  A trace file is an
npy-style container:

* a magic + version preamble and one JSON header (record count, the category
  **string dictionary**, per-column dtypes and byte offsets);
* fixed-dtype little-endian columns, each 64-byte aligned: ``timestamps``
  (``<f8``) and ``codes`` (``<i4``, indices into the dictionary);
* an optional attributes section (concatenated JSON blobs + an ``<i8``
  offsets column) for traces whose records carry attribute mappings.

Reading maps the columns with ``numpy.memmap`` and materializes
:class:`~repro.streaming.batch.RecordBatch` chunks whose timestamp and code
columns are zero-copy views — no per-line parsing, no per-record tuples
(category tuples decode lazily, and the dense close path never asks for
them) and no per-record attribute dicts: the attribute column is an
:class:`~repro.streaming.attributes.EncodedAttributes` window onto the
file's blob, and a row's JSON is parsed only if something indexes that row.

What is validated when: opening a file checks its *structure* — header,
code range, and that the attribute offsets start at 0, never decrease, end
at the blob's size and the blob lies inside the file.  Whether a row's bytes
are a well-formed UTF-8 JSON *object* is checked when that row is read (it
used to be checked for every row of every batch, by parsing them all); a bad
row raises :class:`~repro.exceptions.StreamError` naming the file and row.

Convert existing traces with the module CLI::

    python -m repro.io.columnar convert trace.jsonl trace.rcol
    python -m repro.io.columnar info trace.rcol
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from repro.exceptions import StreamError
from repro.streaming.attributes import EncodedAttributes, encode_row
from repro.streaming.batch import Codebook, RecordBatch
from repro.streaming.record import OperationalRecord

MAGIC = b"\x93RCOL"
VERSION = (1, 0)
_ALIGN = 64

#: File suffixes the trace dispatcher treats as columnar.
COLUMNAR_SUFFIXES = (".rcol", ".columnar")


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def _le_bytes(values: array) -> bytes:
    """The array's buffer as little-endian bytes regardless of host order."""
    if sys.byteorder == "little":
        return values.tobytes()
    swapped = array(values.typecode, values)  # pragma: no cover - BE hosts
    swapped.byteswap()  # pragma: no cover - BE hosts
    return swapped.tobytes()  # pragma: no cover - BE hosts


def write_trace_columnar(
    source: "RecordBatch | Iterable[OperationalRecord] | Iterable[RecordBatch]",
    path: "str | Path",
) -> int:
    """Write records (or batches of records) as a columnar trace file.

    ``source`` may be one :class:`RecordBatch` or any iterable of
    :class:`OperationalRecord` or of :class:`RecordBatch` (the converter
    streams reader output straight in); a batch is written from its columns,
    never row by row.  The bytes depend only on the rows: whatever a batch's
    dictionary holds, codes are numbered in the order the paths first appear
    and the file's dictionary lists only those paths, as when the same rows
    are written as records.  Returns the number of records written.  The
    whole trace's columns are accumulated in memory before the single write
    — traces are bounded by what the detection replay itself can hold, so
    this is not a constraint the reader does not already have.
    """
    if isinstance(source, RecordBatch):
        source = (source,)
    timestamps = array("d")
    codes = array("i")
    book = Codebook()
    # The attributes section, built as the rows arrive: JSON bytes back to
    # back and the running end offset of every row.
    attr_chunks: list[bytes] = []
    attr_offsets = array("q", [0])
    position = 0

    def add_attribute_row(attrs: "Mapping[str, Any] | None") -> None:
        nonlocal position
        if attrs:
            encoded = encode_row(attrs)
            attr_chunks.append(encoded)
            position += len(encoded)
        attr_offsets.append(position)

    # The record branch runs once per record: its methods are bound once.
    append_timestamp, append_code, number = timestamps.append, codes.append, book.code
    for item in source:
        if not isinstance(item, RecordBatch):
            append_timestamp(item.timestamp)
            append_code(number(item.category))
            add_attribute_row(item.attributes)
            continue
        # Translate codes dictionary-to-dictionary, without materializing
        # category tuples per record: compacted, the batch's dictionary
        # lists its paths in first-appearance order.
        item = item.compact()
        translate = np.array(book.codes(item.code_dictionary), dtype=np.intc)
        timestamps.frombytes(item.timestamps.tobytes())
        codes.frombytes(translate[item.category_codes].tobytes())
        batch_attrs = item.attributes
        if isinstance(batch_attrs, EncodedAttributes):
            # Still-encoded rows pass through byte for byte.
            blob, lengths = batch_attrs.window()
            attr_chunks.append(blob)
            ends = position + np.cumsum(lengths, dtype=np.int64)
            attr_offsets.frombytes(ends.tobytes())
            position += len(blob)
        elif batch_attrs is None:
            attr_offsets.extend([position] * len(item))
        else:
            for attrs in batch_attrs:
                add_attribute_row(attrs)

    count = len(timestamps)
    columns: dict[str, dict[str, Any]] = {}
    any_attrs = position > 0
    attr_blob = b"".join(attr_chunks)

    # Lay the sections out: header first (its own size feeds the offsets, so
    # iterate the layout until it fixes — it converges on the second pass).
    header_struct = struct.Struct("<5sBBI")
    payload = {
        "count": count,
        "dictionary": [list(path_) for path_ in book.entries],
        "columns": columns,
    }
    header_bytes = b""
    for _ in range(3):
        data_start = _align(header_struct.size + len(header_bytes))
        offset = data_start
        columns.clear()
        columns["timestamps"] = {"dtype": "<f8", "offset": offset}
        offset = _align(offset + 8 * count)
        columns["codes"] = {"dtype": "<i4", "offset": offset}
        offset = _align(offset + 4 * count)
        if any_attrs:
            columns["attr_offsets"] = {"dtype": "<i8", "offset": offset}
            offset = _align(offset + 8 * (count + 1))
            columns["attr_blob"] = {
                "dtype": "bytes",
                "offset": offset,
                "size": len(attr_blob),
            }
            offset += len(attr_blob)
        encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
        padding = _align(header_struct.size + len(encoded) + 1) - (
            header_struct.size + len(encoded) + 1
        )
        candidate = encoded + b" " * padding + b"\n"
        if len(candidate) == len(header_bytes):
            header_bytes = candidate
            break
        header_bytes = candidate
    if columns["timestamps"]["offset"] != _align(
        header_struct.size + len(header_bytes)
    ):  # pragma: no cover - the 64-byte padding absorbs offset-digit churn
        raise StreamError("columnar header layout failed to converge")

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(
            header_struct.pack(MAGIC, VERSION[0], VERSION[1], len(header_bytes))
        )
        handle.write(header_bytes)

        def seek_pad(target: int) -> None:
            gap = target - handle.tell()
            if gap:
                handle.write(b"\x00" * gap)

        seek_pad(columns["timestamps"]["offset"])
        handle.write(_le_bytes(timestamps))
        seek_pad(columns["codes"]["offset"])
        handle.write(_le_bytes(codes))
        if any_attrs:
            seek_pad(columns["attr_offsets"]["offset"])
            handle.write(_le_bytes(attr_offsets))
            seek_pad(columns["attr_blob"]["offset"])
            handle.write(attr_blob)
        handle.flush()
    tmp.replace(path)
    return count


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_columnar_header(path: "str | Path") -> dict[str, Any]:
    """Parse and validate the header of a columnar trace file."""
    path = Path(path)
    header_struct = struct.Struct("<5sBBI")
    with path.open("rb") as handle:
        preamble = handle.read(header_struct.size)
        if len(preamble) < header_struct.size:
            raise StreamError(f"{path}: not a columnar trace (truncated preamble)")
        magic, major, minor, header_len = header_struct.unpack(preamble)
        if magic != MAGIC:
            raise StreamError(f"{path}: not a columnar trace (bad magic)")
        if major != VERSION[0]:
            raise StreamError(
                f"{path}: unsupported columnar format version {major}.{minor}"
            )
        header_bytes = handle.read(header_len)
        if len(header_bytes) < header_len:
            raise StreamError(f"{path}: truncated columnar header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StreamError(f"{path}: malformed columnar header: {exc}") from exc
    for key in ("count", "dictionary", "columns"):
        if key not in header:
            raise StreamError(f"{path}: columnar header missing {key!r}")
    return header


def read_batches_columnar(
    path: "str | Path", batch_size: int = 8192
) -> Iterator[RecordBatch]:
    """Yield :class:`RecordBatch` chunks from a columnar trace file.

    The timestamp and code columns are ``memmap`` views sliced per batch —
    zero copies, zero per-record parsing.  The category
    dictionary is shared by every yielded batch, and so is the attribute
    blob: each batch's attribute column is an
    :class:`~repro.streaming.attributes.EncodedAttributes` window onto it
    (``None`` for a batch whose rows are all empty).

    The file's structure is validated here, once; the JSON of an attribute
    row only when that row is read (see the module docstring).
    """
    if batch_size < 1:
        raise StreamError(f"batch_size must be >= 1, got {batch_size}")
    path = Path(path)
    header = read_columnar_header(path)
    count = int(header["count"])
    dictionary = [tuple(entry) for entry in header["dictionary"]]
    for category in dictionary:
        if not category:
            raise StreamError(f"{path}: dictionary entry with empty category")
    columns = header["columns"]

    def column(name: str, dtype: str, length: int):
        # A plain ndarray view of the mapping: memmap's own element indexing
        # is pathologically slow.
        return np.asarray(
            np.memmap(
                path,
                dtype=dtype,
                mode="r",
                offset=columns[name]["offset"],
                shape=(length,),
            )
        )

    timestamps = column("timestamps", "<f8", count)
    codes = column("codes", "<i4", count)
    if count and (codes.min() < 0 or codes.max() >= len(dictionary)):
        raise StreamError(f"{path}: category code out of dictionary range")

    attr_offsets = None
    attr_blob = b""
    if "attr_offsets" in columns:
        attr_offsets = column("attr_offsets", "<i8", count + 1)
        blob = columns["attr_blob"]
        with path.open("rb") as handle:
            handle.seek(blob["offset"])
            attr_blob = handle.read(blob["size"])
        if (
            len(attr_blob) != blob["size"]
            or attr_offsets[0] != 0
            or attr_offsets[-1] != len(attr_blob)
            or (attr_offsets[1:] < attr_offsets[:-1]).any()
        ):
            raise StreamError(
                f"{path}: corrupt attributes section (offsets must run from 0 "
                f"to the blob size without decreasing, inside the file)"
            )

    source = str(path)
    for start in range(0, count, batch_size):
        stop = min(start + batch_size, count)
        attrs = None
        if attr_offsets is not None and attr_offsets[start] != attr_offsets[stop]:
            attrs = EncodedAttributes(
                attr_blob, attr_offsets[start : stop + 1], source, start
            )
        yield RecordBatch.from_dictionary_codes(
            timestamps[start:stop], codes[start:stop], dictionary, attrs
        )


# ----------------------------------------------------------------------
# Format dispatch (the service file-replay path and the converter use this)
# ----------------------------------------------------------------------
def read_trace_batches(
    path: "str | Path", batch_size: int = 8192
) -> Iterator[RecordBatch]:
    """Columnar batches from any supported trace file, picked by suffix.

    ``.jsonl``/``.ndjson`` → the JSONL reader, ``.csv`` → the CSV reader,
    ``.rcol``/``.columnar`` → the memory-mapped columnar reader.
    """
    suffix = Path(path).suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        from repro.io.jsonl_io import read_batches_jsonl

        return read_batches_jsonl(path, batch_size)
    if suffix == ".csv":
        from repro.io.csv_io import read_batches_csv

        return read_batches_csv(path, batch_size)
    if suffix in COLUMNAR_SUFFIXES:
        return read_batches_columnar(path, batch_size)
    raise StreamError(
        f"unknown trace format {suffix!r} (expected .jsonl, .ndjson, .csv, "
        f"{' or '.join(COLUMNAR_SUFFIXES)})"
    )


def convert_trace(
    source: "str | Path", target: "str | Path", batch_size: int = 8192
) -> int:
    """Convert a CSV/JSONL (or columnar) trace to the columnar format."""
    return write_trace_columnar(read_trace_batches(source, batch_size), target)


def main(argv: "list[str] | None" = None) -> int:
    """CLI: ``convert SOURCE TARGET`` and ``info PATH`` subcommands."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.io.columnar",
        description="Columnar trace conversion and inspection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    convert = sub.add_parser("convert", help="convert a CSV/JSONL trace")
    convert.add_argument("source", help="input trace (.jsonl/.ndjson/.csv)")
    convert.add_argument("target", help="output columnar file (.rcol)")
    convert.add_argument("--batch-size", type=int, default=8192)
    info = sub.add_parser("info", help="print a columnar file's header")
    info.add_argument("path")
    options = parser.parse_args(argv)

    if options.command == "convert":
        count = convert_trace(options.source, options.target, options.batch_size)
        print(f"wrote {count} records to {options.target}")
        return 0
    header = read_columnar_header(options.path)
    summary = {
        "count": header["count"],
        "dictionary_size": len(header["dictionary"]),
        "columns": sorted(header["columns"]),
        "has_attributes": "attr_blob" in header["columns"],
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
