"""Unit tests for :mod:`repro.streaming.stream`."""

import pytest

from repro.exceptions import StreamError
from repro.streaming.batch import iter_record_batches
from repro.streaming.record import OperationalRecord
from repro.streaming.stream import InputStream


def records(*timestamps):
    return [OperationalRecord.create(ts, ("leaf",)) for ts in timestamps]


class TestOrdering:
    def test_iterates_in_order(self):
        stream = InputStream(records(1, 2, 3))
        assert [r.timestamp for r in stream] == [1, 2, 3]
        assert stream.records_seen == 3

    def test_backwards_jump_raises(self):
        stream = InputStream(records(5, 2))
        next(stream)
        with pytest.raises(StreamError):
            next(stream)

    def test_tolerance_allows_small_jitter(self):
        stream = InputStream(records(5, 4.5, 6), tolerance=1.0)
        assert [r.timestamp for r in stream] == [5, 4.5, 6]


class TestMerge:
    def test_merge_preserves_global_order(self):
        a = records(1, 4, 7)
        b = records(2, 3, 8)
        merged = InputStream.merge(a, b)
        assert [r.timestamp for r in merged] == [1, 2, 3, 4, 7, 8]


class TestWatermark:
    def test_watermark_does_not_regress_within_tolerance(self):
        """Regression: a 0.0 watermark (epoch-aligned first record of a merged
        stream) was treated as unset, letting later jitter walk the watermark
        backwards and silently widening the effective tolerance."""
        stream = InputStream(records(0.0, -0.2, -0.4), tolerance=0.3)
        next(stream)
        next(stream)  # -0.2 is within tolerance of the 0.0 watermark
        with pytest.raises(StreamError):
            next(stream)  # -0.4 must be checked against 0.0, not -0.2

    def test_merged_source_jitter_at_the_boundary(self):
        """A jittery source merged with a later one must still be validated
        against the true (non-regressed) watermark."""
        jittery = records(0.0, -0.2, -0.4)  # within-source jitter around epoch
        later = records(5.0)
        stream = InputStream.merge(jittery, later)
        with pytest.raises(StreamError):
            list(stream)

    def test_merged_jitter_within_tolerance_passes(self):
        stream = InputStream.merge(records(0.0, -0.2), records(5.0), tolerance=0.3)
        assert [r.timestamp for r in stream] == [0.0, -0.2, 5.0]
        assert stream.records_seen == 3


class TestChunkedStream:
    """A stream is consumed as batches by chunking it: ``iter_record_batches``
    pulls every record through the stream's per-record check."""

    def test_chunks_and_round_trip(self):
        stream = InputStream(records(1, 2, 3, 4, 5))
        batches = list(iter_record_batches(stream, 2))
        assert [len(b) for b in batches] == [2, 2, 1]
        assert [r.timestamp for b in batches for r in b] == [1, 2, 3, 4, 5]
        assert stream.records_seen == 5

    def test_merged_stream_is_pulled_lazily(self):
        stream = InputStream.merge(records(1, 4, 7), records(2, 3, 8))
        seen = [stream.records_seen for _ in iter_record_batches(stream, 2)]
        assert seen == [2, 4, 6]

    def test_backwards_jump_raises(self):
        stream = InputStream(records(5, 2))
        with pytest.raises(StreamError):
            list(iter_record_batches(stream, 10))

    def test_jump_across_batch_boundary_raises(self):
        stream = InputStream(records(5, 6, 2))
        batches = iter_record_batches(stream, 2)
        assert [r.timestamp for r in next(batches)] == [5, 6]
        with pytest.raises(StreamError, match="backwards"):
            next(batches)

    def test_tolerance_allows_small_jitter(self):
        stream = InputStream(records(5, 4.5, 6), tolerance=1.0)
        [batch] = list(iter_record_batches(stream, 10))
        assert [r.timestamp for r in batch] == [5, 4.5, 6]

    def test_invalid_size(self):
        with pytest.raises(StreamError):
            list(iter_record_batches(InputStream(records(1)), 0))

    @pytest.mark.parametrize("size", [1, 2, 3, 10])
    def test_failing_source_keeps_what_it_yielded(self, size):
        """A source that raises after k rows: the k rows come out as batches
        (the last one short), then the error propagates."""

        def source():
            yield from records(1, 2, 3)
            raise StreamError("feed lost")

        batches = iter_record_batches(source(), size)
        got = []
        with pytest.raises(StreamError, match="feed lost"):
            for batch in batches:
                got.append([r.timestamp for r in batch])
        assert [ts for batch in got for ts in batch] == [1, 2, 3]
        assert [len(batch) for batch in got] == [
            min(size, 3 - i) for i in range(0, 3, size)
        ]

    def test_backwards_jump_keeps_the_rows_before_it(self):
        stream = InputStream(records(5, 6, 2, 7))
        got = []
        with pytest.raises(StreamError, match="backwards"):
            for batch in iter_record_batches(stream, 10):
                got.extend(r.timestamp for r in batch)
        assert got == [5, 6]
        assert stream.records_seen == 2
