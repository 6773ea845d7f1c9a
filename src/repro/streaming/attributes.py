"""The attribute column of a :class:`~repro.streaming.batch.RecordBatch`.

The detector never reads a record's free-form ``attributes``; the only
consumer on the ingest path is stream-key routing, which asks one question
of the whole column — *can any row hold the key* ``"stream"``?  A column
therefore comes in three shapes, all handled by the four functions at the
bottom of this module (which is the whole interface ``RecordBatch`` uses):

``None``
    every row is empty (the common case for trace files);
``list[Mapping]``
    decoded rows — what record objects and the NDJSON decoder produce;
:class:`EncodedAttributes`
    rows still in their JSON encoding — what the columnar reader produces.
    No shard wire frame carries one: the sharded engine ships workers no
    attribute column, and the wire codec refuses a batch that has one.

:class:`EncodedAttributes` is a ``Sequence[Mapping]`` over one shared blob of
concatenated JSON objects plus an offsets window (``n + 1`` non-decreasing
byte positions; an empty row is a zero-length span).  A row is parsed only
when it is indexed or iterated.  Everything the ingest path does to a column
works on the encoding: a slice is a view of the offsets, a gather copies
bytes, the routing question is a byte scan, and a pickle carries the
window's bytes plus one ``<i4`` length per row.

:func:`encode_row` is the one encoding of a row that this library writes
(JSON with sorted keys, UTF-8): the ``.rcol`` writer and the trace
generator both use it, so a generated column and a written file agree byte
for byte.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.exceptions import StreamError

#: Largest window :meth:`EncodedAttributes.window` can describe with ``<i4``
#: row lengths.
_MAX_WINDOW_BYTES = 2**31 - 1

#: Keys whose only JSON spellings are the literal one and ``\\u`` escapes.
_PLAIN_KEY = re.compile(r"[A-Za-z0-9_.-]+")

#: ``json.dumps(..., sort_keys=True)`` without a new encoder per row.
_encode = json.JSONEncoder(sort_keys=True).encode


def encode_row(attrs: Mapping[str, Any]) -> bytes:
    """One row's attributes as this library writes them: JSON with sorted
    keys, UTF-8."""
    return _encode(dict(attrs)).encode("utf-8")


class EncodedAttributes(Sequence):
    """Attribute rows kept as JSON bytes; decoded one row at a time, on use.

    ``blob`` holds the rows' JSON objects back to back and ``offsets`` the
    ``len + 1`` byte positions delimiting them (an ``int64`` array).  The
    offsets need not start at zero:
    a slice shares its parent's blob.  ``source`` and ``first_row`` only
    label decode errors (``first_row`` is ``None`` once rows were gathered
    out of file order).

    The constructor trusts its arguments — the columnar reader validates a
    file's offsets column once, at open.  Whether a row's bytes are a JSON
    *object* is checked when that row is decoded.
    """

    __slots__ = ("_blob", "_offsets", "_source", "_first_row")

    def __init__(
        self,
        blob: bytes,
        offsets,
        source: "str | None" = None,
        first_row: "int | None" = 0,
    ):
        self._blob = blob
        self._offsets = np.asarray(offsets, dtype=np.int64)
        self._source = source
        self._first_row = first_row

    @classmethod
    def from_window(cls, blob, lengths) -> "EncodedAttributes":
        """Rebuild a column from what :meth:`window` returned (any buffers)."""
        sizes = np.frombuffer(lengths, dtype="<i4")
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return cls(bytes(blob), offsets, None, None)

    # ------------------------------------------------------------------
    # Sequence protocol (the only place a row is ever parsed)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                stop = max(start, stop)
                return EncodedAttributes(
                    self._blob,
                    self._offsets[start : stop + 1],
                    self._source,
                    None if self._first_row is None else self._first_row + start,
                )
            return [self[i] for i in range(start, stop, step)]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("attribute row index out of range")
        return self._decode(index, int(self._offsets[index]), int(self._offsets[index + 1]))

    def __iter__(self):
        bounds = self._offsets.tolist()
        begin = bounds[0]
        for row, end in enumerate(bounds[1:]):
            yield self._decode(row, begin, end)
            begin = end

    def _decode(self, row: int, begin: int, end: int) -> dict:
        if end == begin:
            return {}
        try:
            value = json.loads(self._blob[begin:end].decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise StreamError(f"{self._where(row)}: malformed attributes: {exc}") from exc
        if type(value) is not dict:
            raise StreamError(
                f"{self._where(row)}: attributes must be a JSON object, got "
                f"{type(value).__name__}"
            )
        return value

    def _where(self, row: int) -> str:
        source = self._source or "attribute column"
        if self._first_row is None:
            return f"{source}: row {row} of a gathered batch"
        return f"{source}: row {self._first_row + row}"

    # ------------------------------------------------------------------
    # Column operations on the encoding
    # ------------------------------------------------------------------
    @property
    def all_empty(self) -> bool:
        return self._offsets[0] == self._offsets[-1]

    def may_hold_key(self, key: str) -> bool:
        """False only when no row of the column can have ``key`` at any depth.

        A byte scan, sound on files this library did not write: a JSON
        string equal to ``key`` is either spelled literally (``"key"``) or
        with ``\\u`` escapes, so a window with neither cannot hold it.  Keys
        outside ``[A-Za-z0-9_.-]`` have other spellings (``\\/``, ``\\n``, raw
        vs escaped non-ASCII) and are answered ``True``.
        """
        if not _PLAIN_KEY.fullmatch(key):
            return True
        begin, end = int(self._offsets[0]), int(self._offsets[-1])
        find = self._blob.find
        return (
            find(b'"%s"' % key.encode("ascii"), begin, end) >= 0
            or find(b"\\u", begin, end) >= 0
        )

    def take(self, indices) -> "EncodedAttributes | None":
        """Rows ``indices`` (non-negative) in that order, as a compact column
        — bytes are gathered, never parsed; ``None`` when every taken row is
        empty."""
        rows = np.asarray(indices, dtype=np.intp)
        offsets = self._offsets
        starts = offsets[rows]
        sizes = offsets[rows + 1] - starts
        taken = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(sizes, out=taken[1:])
        total = int(taken[-1])
        if total == 0:
            return None
        source_bytes = np.frombuffer(self._blob, dtype=np.uint8)
        positions = np.repeat(starts - taken[:-1], sizes)
        positions += np.arange(total, dtype=np.int64)
        blob = source_bytes[positions].tobytes()
        return EncodedAttributes(blob, taken, self._source, None)

    def window(self) -> tuple:
        """``(blob, lengths)``: this column's bytes and one ``<i4`` length
        per row — the pickle form, rebuilt by :meth:`from_window`."""
        blob = self._blob[int(self._offsets[0]) : int(self._offsets[-1])]
        if len(blob) > _MAX_WINDOW_BYTES:
            raise StreamError(
                f"attribute column window of {len(blob)} bytes exceeds the "
                f"{_MAX_WINDOW_BYTES}-byte limit of one batch"
            )
        return blob, np.diff(self._offsets).astype("<i4")

    def __reduce__(self):
        # Pickle the rows' window, never the whole file's blob.
        blob, lengths = self.window()
        return (EncodedAttributes.from_window, (blob, lengths.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EncodedAttributes(rows={len(self)}, "
            f"bytes={int(self._offsets[-1]) - int(self._offsets[0])})"
        )


# ----------------------------------------------------------------------
# The column interface: None | list[Mapping] | EncodedAttributes
# ----------------------------------------------------------------------
def slice_rows(column, start: int, stop: int):
    """Rows ``[start, stop)``; an encoded column stays a view, and collapses
    to ``None`` when the slice holds no attribute bytes."""
    if column is None:
        return None
    rows = column[start:stop]
    if isinstance(rows, EncodedAttributes) and rows.all_empty:
        return None
    return rows


def take_rows(column, indices):
    """Rows ``indices`` in the given order."""
    if column is None:
        return None
    if isinstance(column, EncodedAttributes):
        return column.take(indices)
    return [column[i] for i in indices]


def may_hold_key(column, key: str) -> bool:
    """Whether any row of the column could carry ``key`` — ``False`` lets
    routing return a batch whole without looking at a single row."""
    if column is None:
        return False
    if isinstance(column, EncodedAttributes):
        return column.may_hold_key(key)
    return True
