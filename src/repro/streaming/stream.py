"""Input stream abstraction (the paper's ``S = s0, s1, ...``).

Tiresias consumes operational data as an ordered stream of records.  This
module provides a thin iterator wrapper that checks (approximate) time order,
merges several sources, and chunks the records into columnar batches.

Two consumption styles share one stream, one watermark and one record
counter:

* per-record iteration (``for record in stream``), and
* columnar iteration (:meth:`InputStream.iter_batches`), which validates a
  whole :class:`~repro.streaming.batch.RecordBatch` of timestamps in a single
  vectorized pass.

Mixing the two is safe: both advance ``records_seen`` and the jitter
watermark identically, so engine metrics never diverge between paths.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro._types import Timestamp
from repro.exceptions import StreamError
from repro.streaming.batch import ColumnAccumulator, RecordBatch
from repro.streaming.record import OperationalRecord


class InputStream:
    """An ordered stream of :class:`OperationalRecord` items.

    Parameters
    ----------
    records:
        Iterable of records.  The stream validates non-decreasing timestamps
        up to ``tolerance`` seconds of jitter (real operational feeds arrive
        slightly out of order; the session assigns them to timeunits by
        timestamp anyway).
    tolerance:
        Maximum allowed backwards jump in timestamps.
    """

    def __init__(self, records: Iterable[OperationalRecord], tolerance: float = 0.0):
        self._records = iter(records)
        self.tolerance = tolerance
        self._last_ts: Timestamp | None = None
        self._count = 0

    def __iter__(self) -> Iterator[OperationalRecord]:
        return self

    def __next__(self) -> OperationalRecord:
        record = next(self._records)
        if self._last_ts is not None and record.timestamp < self._last_ts - self.tolerance:
            raise StreamError(
                f"stream went backwards in time: {record.timestamp} after "
                f"{self._last_ts} (tolerance {self.tolerance}s)"
            )
        # The watermark must never regress: ``self._last_ts or ts`` treated a
        # legitimate 0.0 watermark (the first record of a merged stream at the
        # epoch) as "unset", silently widening the tolerance for later jitter.
        if self._last_ts is None or record.timestamp > self._last_ts:
            self._last_ts = record.timestamp
        self._count += 1
        return record

    @property
    def records_seen(self) -> int:
        """Number of records already consumed from the stream."""
        return self._count

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_sorted(cls, records: Sequence[OperationalRecord]) -> "InputStream":
        """Stream over an already materialized list, sorting it by time."""
        return cls(sorted(records))

    @classmethod
    def merge(
        cls, *streams: Iterable[OperationalRecord], tolerance: float = 0.0
    ) -> "InputStream":
        """Merge several time-ordered sources into one ordered stream.

        This mirrors combining the trouble-description feed and the network
        path feed, or feeds from different VHO regions, into a single stream.
        The merge is lazy (records are pulled from the sources on demand) and
        ``tolerance`` bounds the within-source jitter the merged stream
        accepts, checked against a watermark that never regresses.
        """
        merged = heapq.merge(*streams, key=lambda r: r.timestamp)
        return cls(merged, tolerance=tolerance)

    # ------------------------------------------------------------------
    # Columnar batching
    # ------------------------------------------------------------------
    def iter_batches(self, size: int) -> Iterator[RecordBatch]:
        """Consume the stream as columnar :class:`RecordBatch` chunks.

        Pulls up to ``size`` records at a time and validates their timestamps
        against the jitter tolerance in one vectorized pass (the same check
        :meth:`__next__` applies record by record).  ``records_seen`` and the
        internal watermark advance exactly as under per-record iteration, so
        switching between the two styles — or between a plain and a merged
        stream — never skews engine metrics.
        """
        if size < 1:
            raise StreamError(f"batch size must be >= 1, got {size}")
        acc = ColumnAccumulator(size)
        while True:
            for record in self._records:
                acc.add_record(record)
                if len(acc) >= size:
                    break
            if not len(acc):
                return
            self._validate_batch_order(acc.timestamps)
            self._count += len(acc)
            yield acc.flush()

    def _validate_batch_order(self, timestamps: Sequence[float]) -> None:
        """Vectorized equivalent of the per-record jitter check.

        Each timestamp is compared against the running maximum of everything
        before it (seeded with the stream watermark); on success the watermark
        advances to the batch maximum.  On a violation, the valid prefix is
        accounted for first — ``records_seen`` and the watermark end up
        exactly where per-record iteration would have left them when raising
        (the buffered prefix itself is not yielded; the error is fatal).
        """
        ts = np.asarray(timestamps, dtype=np.float64)
        base = ts if self._last_ts is None else np.concatenate(([self._last_ts], ts))
        watermark = np.maximum.accumulate(base)
        bad = np.flatnonzero(base[1:] < watermark[:-1] - self.tolerance)
        if bad.size:
            i = int(bad[0])
            prefix = i if self._last_ts is not None else i + 1
            self._count += prefix
            self._last_ts = float(watermark[i])
            raise StreamError(
                f"stream went backwards in time: {base[i + 1]} after "
                f"{watermark[i]} (tolerance {self.tolerance}s)"
            )
        self._last_ts = float(watermark[-1])
