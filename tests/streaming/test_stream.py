"""Unit tests for :mod:`repro.streaming.stream`."""

import pytest

from repro.exceptions import StreamError
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

    def test_from_sorted_sorts_input(self):
        stream = InputStream.from_sorted(records(3, 1, 2))
        assert [r.timestamp for r in stream] == [1, 2, 3]


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


class TestIterBatches:
    def test_chunks_and_round_trip(self):
        stream = InputStream(records(1, 2, 3, 4, 5))
        batches = list(stream.iter_batches(2))
        assert [len(b) for b in batches] == [2, 2, 1]
        assert [r.timestamp for b in batches for r in b] == [1, 2, 3, 4, 5]

    def test_records_seen_matches_per_record_path(self):
        per_record = InputStream(records(1, 2, 3, 4, 5))
        list(per_record)
        batched = InputStream(records(1, 2, 3, 4, 5))
        list(batched.iter_batches(2))
        assert batched.records_seen == per_record.records_seen == 5

    def test_merged_stream_batch_iteration_counts_lazily(self):
        a = records(1, 4, 7)
        b = records(2, 3, 8)
        stream = InputStream.merge(a, b)
        seen = []
        for batch in stream.iter_batches(2):
            seen.append(stream.records_seen)
        assert seen == [2, 4, 6]
        assert stream.records_seen == 6

    def test_backwards_jump_raises(self):
        stream = InputStream(records(5, 2))
        with pytest.raises(StreamError):
            list(stream.iter_batches(10))

    def test_error_path_keeps_records_seen_parity(self):
        """On a jitter violation, records_seen and the watermark end up where
        per-record iteration would have left them."""
        per_record = InputStream(records(5, 6, 2))
        with pytest.raises(StreamError):
            list(per_record)
        batched = InputStream(records(5, 6, 2))
        with pytest.raises(StreamError):
            list(batched.iter_batches(10))
        assert batched.records_seen == per_record.records_seen == 2
        assert batched._last_ts == per_record._last_ts == 6

    def test_jump_across_batch_boundary_raises(self):
        stream = InputStream(records(5, 6, 2))
        batches = stream.iter_batches(2)
        next(batches)
        with pytest.raises(StreamError):
            next(batches)

    def test_tolerance_allows_small_jitter(self):
        stream = InputStream(records(5, 4.5, 6), tolerance=1.0)
        [batch] = list(stream.iter_batches(10))
        assert [r.timestamp for r in batch] == [5, 4.5, 6]

    def test_watermark_does_not_regress_within_batch(self):
        stream = InputStream(records(0.0, -0.2, -0.4), tolerance=0.3)
        with pytest.raises(StreamError):
            list(stream.iter_batches(10))

    def test_mixing_batch_and_record_iteration_shares_state(self):
        stream = InputStream(records(1, 2, 3, 4))
        next(iter(stream))
        batch = next(stream.iter_batches(2))
        assert [r.timestamp for r in batch] == [2, 3]
        assert next(stream).timestamp == 4
        assert stream.records_seen == 4

    def test_invalid_size(self):
        stream = InputStream(records(1))
        with pytest.raises(StreamError):
            list(stream.iter_batches(0))
