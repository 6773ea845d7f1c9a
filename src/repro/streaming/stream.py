"""Input stream abstraction (the paper's ``S = s0, s1, ...``).

Tiresias consumes operational data as an ordered stream of records.  This
module provides a thin iterator wrapper that checks (approximate) time order
and merges several sources.  To consume it as columnar batches, chunk it:
``iter_record_batches(stream, size)``
(:func:`~repro.streaming.batch.iter_record_batches`) pulls the records
through the same per-record check, so a jump across a chunk boundary raises
like any other, after the rows before it came out as a batch.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro._types import Timestamp
from repro.exceptions import StreamError
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
