"""Columnar record batches: the vectorized ingestion substrate.

A :class:`RecordBatch` holds many operational records as parallel columns —
one timestamp array, one category column, one (optional) attribute list —
instead of N :class:`~repro.streaming.record.OperationalRecord` objects.  The
category column is always *dictionary-coded*: one ``int32`` code per record
into a list of the distinct paths (:class:`Codebook`).  Trace readers build
the codes as they read (:class:`ColumnAccumulator`); a batch assembled by
hand from tuples (``RecordBatch(...)``, :meth:`RecordBatch.from_records`) is
numbered at construction, and :attr:`RecordBatch.categories` reads the same
either way.  The whole hot path operates on these columns:

* timeunit classification is one vectorized pass over the timestamp column
  (:meth:`RecordBatch.timeunit_indices`);
* the records of each timeunit are found as *runs* of rows
  (:meth:`RecordBatch.timeunit_runs`), which a session counts with one
  ``bincount`` for the whole batch;
* engine routing partitions the batch by stream key in one pass
  (:meth:`RecordBatch.partition_by_key`), so single-session engines forward
  whole batches without touching individual records.

A batch is the only thing sessions and engines ingest: a record object is a
batch of one (:meth:`RecordBatch.from_records`), and a record iterable is
chunked by :func:`iter_record_batches` into batches of
:data:`STREAM_BATCH_SIZE` rows.

Chunking invariance
-------------------
Runs preserve *arrival order*: records are grouped into
**runs** of consecutive records that share a timeunit, and runs come in
stream order (not sorted by timeunit).  Every out-of-order policy decision is
therefore taken on the same records wherever a stream is cut into batches, so
detections, reports and checkpoints do not depend on the chunk size — one
record per batch included (see ``tests/integration/test_batch_equivalence.py``).

The columns are NumPy arrays: NumPy is a dependency of the package.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from math import isfinite as _isfinite
from typing import Any

import numpy as np

from repro._types import CategoryPath, Timestamp
from repro.exceptions import StreamError
from repro.streaming.attributes import (
    concat_rows,
    may_hold_key,
    slice_rows,
    take_rows,
)
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord

#: Rows per chunk when a record iterable is consumed as batches — what every
#: ``process_stream`` (session, engine, sharded engine) chunks its records by.
STREAM_BATCH_SIZE = 8192

#: A :class:`ColumnAccumulator` built for batches of ``batch_size`` rows
#: starts a fresh codebook rather than let one grow past this many batches'
#: worth of entries, so a stream of all-distinct categories holds
#: O(``batch_size``) dictionary entries, never O(stream).
CODEBOOK_BATCHES = 4


class Codebook:
    """Category paths numbered in first-appearance order.

    THE dictionary builder: the accumulator behind every trace reader, the
    :class:`RecordBatch` constructor, the shard channels' cumulative dictionaries
    (:class:`~repro.engine.transport.wire.DictEncoder`) and the ``.rcol``
    writer all number paths through one of these.  ``entries[code]`` is the
    path, ``lookup[path]`` its code; both only ever grow.
    """

    __slots__ = ("lookup", "entries")

    def __init__(self) -> None:
        self.lookup: dict[CategoryPath, int] = {}
        self.entries: list[CategoryPath] = []

    def __len__(self) -> int:
        return len(self.entries)

    def code(self, path: CategoryPath) -> int:
        """The code of ``path``, numbering it if it is new."""
        code = self.lookup.get(path)
        if code is None:
            code = self.lookup[path] = len(self.entries)
            self.entries.append(path)
        return code

    def codes(self, paths: Iterable[CategoryPath]) -> list[int]:
        """:meth:`code` of every path, in order."""
        code = self.code
        return [code(path) for path in paths]


class RecordBatch:
    """A column-oriented batch of operational records.

    One representation however the batch was built: ``timestamps`` is a
    ``float64`` array, ``category_codes`` an ``int32`` array of indices into
    ``code_dictionary``, the list of the distinct category paths.

    Parameters
    ----------
    timestamps:
        Per-record timestamps, stream order.  A non-finite one raises
        :class:`~repro.exceptions.StreamError`, as it does for an
        :class:`~repro.streaming.record.OperationalRecord`.
    categories:
        Per-record category paths (tuples of labels), parallel to
        ``timestamps``; numbered in first-appearance order here.  (Readers
        hand over codes they already built — :meth:`from_dictionary_codes`.)
    attributes:
        Optional per-record attribute mappings, parallel to ``timestamps``.
        ``None`` means every record has empty attributes (the common case for
        trace files), which lets routing short-circuit without touching rows.
        The columnar reader hands over an
        :class:`~repro.streaming.attributes.EncodedAttributes` column, whose
        rows stay JSON bytes until one is indexed; :meth:`slice`,
        :meth:`take`, :meth:`concat` and :meth:`partition_by_key` keep it
        encoded.
    """

    __slots__ = (
        "timestamps",
        "_categories",
        "attributes",
        "category_codes",
        "code_dictionary",
    )

    def __init__(
        self,
        timestamps: Sequence[float],
        categories: Sequence[CategoryPath],
        attributes: Sequence[Mapping[str, Any]] | None = None,
    ):
        if not isinstance(categories, list):
            categories = list(categories)
        book = Codebook()
        self._set_columns(
            timestamps, book.codes(categories), book.entries, attributes
        )
        # The given tuples are what ``categories`` would decode to.
        self._categories = categories

    def _set_columns(self, timestamps, codes, dictionary, attributes) -> None:
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        self.category_codes = np.asarray(codes, dtype=np.int32)
        self.code_dictionary = dictionary
        self.attributes = attributes
        self._categories: "list[CategoryPath] | None" = None
        rows = len(self.category_codes)
        if len(self.timestamps) != rows:
            raise StreamError(
                f"column length mismatch: {len(self.timestamps)} timestamps vs "
                f"{rows} categories"
            )
        if attributes is not None and len(attributes) != rows:
            raise StreamError(
                f"column length mismatch: {len(attributes)} attribute rows vs "
                f"{rows} categories"
            )
        if not np.isfinite(self.timestamps).all():
            bad = float(self.timestamps[~np.isfinite(self.timestamps)][0])
            raise StreamError(f"record timestamp {bad!r} is not finite")

    @property
    def categories(self) -> list[CategoryPath]:
        """Per-record category paths, decoded from the codes on first use.

        The dense close path never asks, which is where the columnar
        reader's parse savings come from.
        """
        cats = self._categories
        if cats is None:
            dictionary = self.code_dictionary
            cats = [dictionary[code] for code in self.category_codes.tolist()]
            self._categories = cats
        return cats

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[OperationalRecord]) -> "RecordBatch":
        """Columnarize an iterable of record objects."""
        acc = ColumnAccumulator()
        for record in records:
            acc.add_record(record)
        return acc.flush()

    @classmethod
    def from_columns(
        cls,
        timestamps: Sequence[float],
        categories: Sequence[Sequence[str]],
        attributes: Sequence[Mapping[str, Any]] | None = None,
    ) -> "RecordBatch":
        """Build a batch from raw columns, normalizing category paths."""
        normalized = [
            c if isinstance(c, tuple) else tuple(c) for c in categories
        ]
        for path in normalized:
            if not path:
                raise StreamError("a record must have a non-empty category path")
        return cls(timestamps, normalized, attributes)

    @classmethod
    def from_dictionary_codes(
        cls,
        timestamps,
        codes,
        dictionary: Sequence[CategoryPath],
        attributes: Sequence[Mapping[str, Any]] | None = None,
    ) -> "RecordBatch":
        """Build a batch from dictionary-encoded categories (what every
        trace reader and the wire decoder do).

        ``codes`` holds one index into ``dictionary`` per record (an
        ``int32`` array is kept as is, without a copy) and ``dictionary``
        the distinct category paths as tuples.
        """
        batch = cls.__new__(cls)
        batch._set_columns(timestamps, codes, dictionary, attributes)
        return batch

    @classmethod
    def empty(cls) -> "RecordBatch":
        return cls([], [], None)

    # ------------------------------------------------------------------
    # Row access (compatibility layer)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.timestamps)

    def record(self, index: int) -> OperationalRecord:
        """Materialize row ``index`` as an :class:`OperationalRecord`."""
        attrs = self.attributes[index] if self.attributes is not None else {}
        return OperationalRecord(
            float(self.timestamps[index]), self.categories[index], attrs
        )

    def __iter__(self) -> Iterator[OperationalRecord]:
        for i in range(len(self)):
            yield self.record(i)

    def to_records(self) -> list[OperationalRecord]:
        return list(self)

    def slice(self, start: int, stop: int) -> "RecordBatch":
        """A contiguous sub-batch: zero-copy views of the columns over the
        same dictionary, rows never built."""
        return RecordBatch.from_dictionary_codes(
            self.timestamps[start:stop],
            self.category_codes[start:stop],
            self.code_dictionary,
            slice_rows(self.attributes, start, stop),
        )

    def take(self, indices: Sequence[int]) -> "RecordBatch":
        """A sub-batch of the given (non-negative) row indices, in the given
        order: the columns are gathered, the dictionary is shared."""
        rows = np.asarray(indices, dtype=np.intp)
        return RecordBatch.from_dictionary_codes(
            self.timestamps[rows],
            self.category_codes[rows],
            self.code_dictionary,
            take_rows(self.attributes, indices),
        )

    def concat(self, other: "RecordBatch") -> "RecordBatch":
        """This batch followed by ``other`` (columns concatenated).  Two
        batches over the same dictionary object keep it; otherwise the rows
        are numbered afresh."""
        timestamps = np.concatenate([self.timestamps, other.timestamps])
        attrs = concat_rows(
            self.attributes, len(self), other.attributes, len(other)
        )
        if self.code_dictionary is other.code_dictionary:
            return RecordBatch.from_dictionary_codes(
                timestamps,
                np.concatenate([self.category_codes, other.category_codes]),
                self.code_dictionary,
                attrs,
            )
        return RecordBatch(timestamps, self.categories + other.categories, attrs)

    # ------------------------------------------------------------------
    # Vectorized timeunit aggregation
    # ------------------------------------------------------------------
    def timeunit_indices(self, clock: SimulationClock):
        """Timeunit index of every record: ``clock.timeunit_of`` of each
        timestamp (Python's float ``//``, which ``np.floor_divide`` matches),
        computed in one vectorized pass.

        ``floor((ts - epoch) / delta)`` alone is not that: the quotient is
        rounded, and a true quotient just below an integer can round up onto
        it.  But rounding is monotone and integers (below 2⁵³) are
        representable, so it can never carry a quotient *across* an integer
        without landing on it — where the rounded quotient is not an integer
        its floor is exact.  Only the rows whose quotient came out integral
        are recomputed with ``np.floor_divide`` (ten times the cost of a
        divide and a floor).
        """
        offsets = self.timestamps - clock.epoch
        quotients = offsets / clock.delta
        units = np.floor(quotients)
        recheck = np.flatnonzero(units == quotients)
        units[recheck] = np.floor_divide(offsets[recheck], clock.delta)
        return units.astype(np.int64)

    def timeunit_runs(self, clock: SimulationClock) -> list[tuple[int, int, int]]:
        """Run boundaries: ``(timeunit, start_row, stop_row)`` per run.

        A *run* is a maximal stretch of consecutive records sharing a
        timeunit; runs come in stream order, so replaying them is
        semantically identical to replaying the records one at a time (the
        property the out-of-order policies rely on).  For a time-ordered
        stream there is exactly one run per non-empty timeunit.  The dense
        ingest path gives each run a row of one count matrix and aggregates
        the whole batch with one ``bincount``.
        """
        n = len(self)
        if n == 0:
            return []
        units = self.timeunit_indices(clock)
        # ``!=`` hands ``flatnonzero`` booleans (a ``diff`` would hand it
        # integers to test, at four times the cost).
        starts = [0, *(np.flatnonzero(units[1:] != units[:-1]) + 1).tolist()]
        return list(zip(units[starts].tolist(), starts, [*starts[1:], n]))

    # ------------------------------------------------------------------
    # Vectorized stream-key partitioning
    # ------------------------------------------------------------------
    def stream_keys(
        self, selector: Callable[[OperationalRecord], "str | None"] | None = None
    ) -> "list[str | None]":
        """Per-record stream key.

        With no ``selector`` the default attribute convention is read straight
        off the attribute column (``attributes["stream"]``), never
        materializing records — and never decoding a row of an encoded column
        that cannot hold the key; a custom selector is applied row by row.
        """
        if selector is None:
            if not may_hold_key(self.attributes, "stream"):
                return [None] * len(self)
            return [attrs.get("stream") for attrs in self.attributes]
        return [selector(self.record(i)) for i in range(len(self))]

    def partition_by_key(
        self, selector: Callable[[OperationalRecord], "str | None"] | None = None
    ) -> "list[tuple[str | None, RecordBatch]]":
        """Split into per-stream-key sub-batches, one O(n) pass.

        Keys appear in first-seen order and each sub-batch preserves the
        relative record order of the parent, so each session ingests its
        records in stream order.  A batch whose records all share one key
        (including the all-``None`` case of untagged traces) is returned
        whole without copying columns.
        """
        if len(self) == 0:
            return []
        if selector is None and not may_hold_key(self.attributes, "stream"):
            return [(None, self)]
        keys = self.stream_keys(selector)
        groups: dict[str | None, list[int]] = {}
        for i, key in enumerate(keys):
            if key in groups:
                groups[key].append(i)
            else:
                groups[key] = [i]
        if len(groups) == 1:
            return [(next(iter(groups)), self)]
        return [(key, self.take(rows)) for key, rows in groups.items()]

    # ------------------------------------------------------------------
    # Column summaries
    # ------------------------------------------------------------------
    @property
    def min_timestamp(self) -> Timestamp:
        if len(self) == 0:
            raise StreamError("an empty batch has no timestamps")
        return float(self.timestamps.min())

    @property
    def max_timestamp(self) -> Timestamp:
        if len(self) == 0:
            raise StreamError("an empty batch has no timestamps")
        return float(self.timestamps.max())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        span = (
            f", t=[{self.min_timestamp:g}, {self.max_timestamp:g}]"
            if len(self)
            else ""
        )
        return f"RecordBatch(len={len(self)}{span})"


class ColumnAccumulator:
    """Row-by-row builder of dictionary-coded :class:`RecordBatch` columns.

    Every batch producer (:meth:`RecordBatch.from_records`, the record
    chunker, the io batch loaders, the NDJSON decoder behind both service
    front ends) shares this accumulator so the column conventions live in exactly one
    place: a timestamp per row, a dictionary code per row, the attribute
    column dropped when every row is empty.  Categories never sit in a
    per-record tuple column — a row's path is looked up in the
    accumulator's :class:`Codebook` and only its code is kept, which is the
    representation an ``.rcol`` file holds and the dense close consumes.

    The codebook is cumulative over the accumulator's lifetime (one file,
    one HTTP request, one socket connection), so consecutive batches share
    their dictionary.  Two rules make that safe to hand out:

    * a dictionary object given to a batch never changes size afterwards
      (sessions and shard channels cache per dictionary *object*): growth
      is published once per :meth:`flush`, as a new list, and while nothing
      new appeared every batch gets the same object;
    * with ``batch_size`` given — the row count the caller flushes at — a
      fresh codebook is started at a flush that finds more than
      ``(CODEBOOK_BATCHES - 1) * batch_size`` entries, so no dictionary
      ever exceeds ``CODEBOOK_BATCHES * batch_size`` entries however many
      distinct categories a stream carries.
    """

    __slots__ = (
        "timestamps",
        "codes",
        "attributes",
        "_any_attrs",
        "_book",
        "_dictionary",
        "_codebook_limit",
    )

    def __init__(self, batch_size: "int | None" = None):
        self._codebook_limit = (
            None if batch_size is None else (CODEBOOK_BATCHES - 1) * batch_size
        )
        self._book = Codebook()
        #: The dictionary object the last flush handed out.
        self._dictionary: list[CategoryPath] = []
        self._reset()

    def _reset(self) -> None:
        self.timestamps: list[float] = []
        self.codes: list[int] = []
        self.attributes: list[Mapping[str, Any]] = []
        self._any_attrs = False

    def __len__(self) -> int:
        return len(self.timestamps)

    def add(
        self,
        timestamp: float,
        category: CategoryPath,
        attributes: "Mapping[str, Any] | None" = None,
    ) -> None:
        self.timestamps.append(timestamp)
        self.codes.append(self._book.code(category))
        attrs = attributes or {}
        self.attributes.append(attrs)
        self._any_attrs = self._any_attrs or bool(attrs)

    def add_record(self, record: OperationalRecord) -> None:
        self.add(record.timestamp, record.category, record.attributes)

    def add_trace_row(
        self,
        timestamp: Any,
        labels: Any,
        attributes: "Mapping[str, Any] | None" = None,
    ) -> None:
        """Coerce and append one raw trace row — THE shared ingestion path.

        Every trace reader (CSV cells, the NDJSON decoder behind the JSONL
        file readers and the service ingestion endpoints) funnels through
        this method so the coercion and validation rules live in exactly one
        place: the timestamp must parse as a *finite* float, the category
        must be a non-empty sequence of hashable labels — a bare string is
        not one (``"TV"`` would silently become ``("T", "V")``), nor is a
        mapping or a set — and non-empty attributes must be a mapping.
        Raises :class:`~repro.exceptions.StreamError` otherwise, so a bad
        row is refused where it is read instead of failing later on the
        detection thread, where it would take its whole batch with it.  A
        refused row leaves the columns and the codebook untouched.
        """
        if type(labels) is not list and (
            isinstance(labels, (str, bytes)) or not isinstance(labels, Sequence)
        ):
            raise StreamError(
                f"record category must be a sequence of labels, got "
                f"{type(labels).__name__}"
            )
        book = self._book
        try:
            category = tuple(labels)
            # The lookup is also the hashability check: a nested list label
            # would die at classification.
            code = book.lookup.get(category)
            if type(timestamp) is not float:
                timestamp = float(timestamp)
        except (TypeError, ValueError, OverflowError) as exc:
            raise StreamError(f"malformed record object: {exc!r}") from exc
        if not category:
            raise StreamError("record with an empty category path")
        if not _isfinite(timestamp):
            raise StreamError(f"record timestamp {timestamp!r} is not finite")
        if not attributes:
            attributes = {}
        elif type(attributes) is dict or isinstance(attributes, Mapping):
            self._any_attrs = True
        else:
            raise StreamError(
                f"record attributes must be a mapping, got "
                f"{type(attributes).__name__}"
            )
        # ``Codebook.code`` (its lookup was done above) and ``add`` inlined:
        # this runs once per ingested record.
        if code is None:
            entries = book.entries
            code = book.lookup[category] = len(entries)
            entries.append(category)
        self.timestamps.append(timestamp)
        self.codes.append(code)
        self.attributes.append(attributes)

    def flush(self) -> RecordBatch:
        """The accumulated rows as a coded batch; the rows reset to empty,
        the codebook carries over (see the class docstring)."""
        book = self._book
        limit = self._codebook_limit
        if limit is not None and len(book) > limit:
            # Retired with its codebook, so nothing appends to it again.
            dictionary = book.entries
            self._book = Codebook()
            self._dictionary = []
        else:
            if len(book) != len(self._dictionary):
                self._dictionary = list(book.entries)
            dictionary = self._dictionary
        batch = RecordBatch.from_dictionary_codes(
            self.timestamps,
            self.codes,
            dictionary,
            self.attributes if self._any_attrs else None,
        )
        self._reset()
        return batch


def iter_record_batches(
    records: Iterable[OperationalRecord], size: int
) -> Iterator[RecordBatch]:
    """Chunk any record iterable into :class:`RecordBatch` objects of ``size``.

    When the source raises, the rows it yielded come out first, as a last
    short batch, so a consumer ingests every record the source produced.
    """
    if size < 1:
        raise StreamError(f"batch size must be >= 1, got {size}")
    acc = ColumnAccumulator(size)
    try:
        for record in records:
            acc.add_record(record)
            if len(acc) >= size:
                yield acc.flush()
    except Exception:
        if len(acc):
            yield acc.flush()
        raise
    if len(acc):
        yield acc.flush()
