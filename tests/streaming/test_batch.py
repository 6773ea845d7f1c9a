"""Unit tests for :mod:`repro.streaming.batch`."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TiresiasConfig
from repro.engine.session import DetectionSession
from repro.exceptions import StreamError
from repro.streaming.batch import ColumnAccumulator, RecordBatch, iter_record_batches
from repro.streaming.clock import SimulationClock
from repro.streaming.record import OperationalRecord
from tests.conftest import canonical_checkpoint


def rec(ts, label="leaf", **attrs):
    return OperationalRecord.create(ts, (label,), **attrs)


def rows(records):
    """Full row tuples (record equality alone compares only timestamps)."""
    return [(r.timestamp, r.category, dict(r.attributes)) for r in records]


#: Unit widths and epochs the exact classification is checked at.
DELTAS = [900.0, 0.1, 7.0, 86400.0, 1e-3, 3.3]
EPOCHS = [0.0, 12.345, -1e5, 0.1]


@pytest.fixture
def clock():
    return SimulationClock(delta=10.0)


class TestConstruction:
    def test_from_records_round_trips(self):
        records = [rec(1.0, "a"), rec(2.0, "b", stream="x"), rec(3.0, "a")]
        batch = RecordBatch.from_records(records)
        assert len(batch) == 3
        assert rows(batch) == rows(records)

    def test_from_records_without_attributes_drops_column(self):
        batch = RecordBatch.from_records([rec(1.0), rec(2.0)])
        assert batch.attributes is None
        assert batch.record(0).attributes == {}

    def test_categories_may_come_from_any_iterable(self):
        batch = RecordBatch([1.0, 2.0, 3.0], (path for path in [("a",), ("b",), ("a",)]))
        assert batch.categories == [("a",), ("b",), ("a",)]
        assert batch.category_codes.tolist() == [0, 1, 0]

    def test_from_columns_normalizes_category_paths(self):
        batch = RecordBatch.from_columns([1.0, 2.0], [["a", "a1"], ("b",)])
        assert batch.categories == [("a", "a1"), ("b",)]

    def test_from_columns_rejects_empty_category(self):
        with pytest.raises(StreamError):
            RecordBatch.from_columns([1.0], [()])

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(StreamError):
            RecordBatch([1.0, 2.0], [("a",)])
        with pytest.raises(StreamError):
            RecordBatch([1.0], [("a",)], attributes=[{}, {}])

    def test_empty_batch(self):
        batch = RecordBatch.empty()
        assert len(batch) == 0
        assert list(batch) == []
        with pytest.raises(StreamError):
            batch.min_timestamp

    def test_empty_batch_has_no_max_timestamp(self):
        with pytest.raises(StreamError, match="no timestamps"):
            RecordBatch.empty().max_timestamp

    def test_timestamp_span(self):
        batch = RecordBatch([3.0, 1.0, 2.0], [("a",), ("b",), ("a",)])
        assert (batch.min_timestamp, batch.max_timestamp) == (1.0, 3.0)


class TestNonFiniteTimestamps:
    """A batch refuses a non-finite timestamp with the record's own message,
    however it is built, so no session ever sees one."""

    @staticmethod
    def record_message(bad):
        with pytest.raises(StreamError) as caught:
            OperationalRecord(bad, ("leaf",))
        return str(caught.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_every_construction_route_refuses_one(self, bad):
        message = self.record_message(bad)
        for build in (
            lambda: RecordBatch([1.0, bad], [("a",), ("b",)]),
            lambda: RecordBatch.from_columns([bad, 300.0], [("a",), ("b",)]),
            lambda: RecordBatch.from_dictionary_codes([bad], [0], [("a",)]),
        ):
            with pytest.raises(StreamError) as caught:
                build()
            assert str(caught.value) == message

    @pytest.mark.parametrize("policy", ["drop", "clamp", "raise"])
    def test_no_policy_meets_one(self, policy, small_tree):
        leaf = ("region-0", "site-00")
        session = DetectionSession(
            small_tree,
            TiresiasConfig(delta_seconds=300.0, out_of_order_policy=policy),
            clock=SimulationClock(delta=300.0),
        )
        session.ingest_record_batch(RecordBatch.from_columns([600.0], [leaf]))
        before = canonical_checkpoint(session.state_dict())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NumPy cast warning either
            with pytest.raises(StreamError) as caught:
                session.ingest_record_batch(
                    RecordBatch.from_columns([float("nan"), 300.0], [leaf, leaf])
                )
        assert str(caught.value) == self.record_message(float("nan"))
        assert canonical_checkpoint(session.state_dict()) == before


class TestOneFormat:
    """However a batch is built it holds the same three columns: float64
    timestamps, int32 codes, the list of distinct paths."""

    @staticmethod
    def builders():
        records = [rec(1.0, "b"), rec(2.0, "a"), rec(3.0, "b")]
        stamps = [r.timestamp for r in records]
        paths = [r.category for r in records]
        accumulator = ColumnAccumulator()
        for record in records:
            accumulator.add_record(record)
        return {
            "constructor": RecordBatch(stamps, paths),
            "from_records": RecordBatch.from_records(records),
            "from_columns": RecordBatch.from_columns(stamps, [list(p) for p in paths]),
            "from_dictionary_codes": RecordBatch.from_dictionary_codes(
                stamps, [0, 1, 0], [("b",), ("a",)]
            ),
            "accumulator": accumulator.flush(),
            "empty": RecordBatch.empty(),
        }

    @pytest.mark.parametrize(
        "how",
        ["constructor", "from_records", "from_columns", "from_dictionary_codes",
         "accumulator", "empty"],
    )
    def test_every_construction_route_yields_the_same_columns(self, how):
        batch = self.builders()[how]
        assert isinstance(batch.timestamps, np.ndarray)
        assert batch.timestamps.dtype == np.float64
        assert isinstance(batch.category_codes, np.ndarray)
        assert batch.category_codes.dtype == np.int32
        assert isinstance(batch.code_dictionary, list)
        if how != "empty":
            assert batch.code_dictionary == [("b",), ("a",)]
            assert batch.category_codes.tolist() == [0, 1, 0]
            assert batch.categories == [("b",), ("a",), ("b",)]

    def test_an_int32_code_column_is_kept_without_a_copy(self):
        codes = np.array([1, 0, 1], dtype=np.int32)
        batch = RecordBatch.from_dictionary_codes([1.0, 2.0, 3.0], codes, [("a",), ("b",)])
        assert batch.category_codes is codes
        assert batch.slice(1, 3).category_codes.base is codes  # a view
        assert batch.slice(1, 3).code_dictionary is batch.code_dictionary

    def test_code_column_length_mismatch_rejected(self):
        with pytest.raises(StreamError, match="3 timestamps vs 2 categories"):
            RecordBatch.from_dictionary_codes([1.0, 2.0, 3.0], [0, 0], [("a",)])
        with pytest.raises(StreamError, match="1 attribute rows vs 2 categories"):
            RecordBatch.from_dictionary_codes([1.0, 2.0], [0, 0], [("a",)], [{}])

    def test_sub_batches_of_a_tuple_built_batch_share_its_dictionary(self):
        batch = RecordBatch.from_records([rec(1.0, "a"), rec(2.0, "b"), rec(3.0, "a")])
        for part in (batch.slice(1, 3), batch.take([2, 1])):
            assert part.code_dictionary is batch.code_dictionary
        assert batch.take([2, 1]).categories == [("a",), ("b",)]


class TestColumnOps:
    def test_slice_and_take_preserve_rows(self):
        records = [rec(float(i), f"l{i}", n=i) for i in range(5)]
        batch = RecordBatch.from_records(records)
        assert rows(batch.slice(1, 3)) == rows(records[1:3])
        assert rows(batch.take([4, 0, 2])) == rows([records[4], records[0], records[2]])

    def test_indexing(self):
        records = [rec(float(i), f"l{i}", n=i) for i in range(6)]
        batch = RecordBatch.from_records(records)
        assert rows([batch[1], batch[-1]]) == rows([records[1], records[-1]])
        assert isinstance(batch[1:4], RecordBatch)
        assert rows(batch[1:4]) == rows(records[1:4])
        assert rows(batch[::2]) == rows(records[::2])
        assert rows(batch[4:1]) == []
        with pytest.raises(IndexError):
            batch[6]

    def test_compact_numbers_paths_in_first_appearance_order(self):
        dictionary = [("z",), ("b",), ("a",)]
        batch = RecordBatch.from_dictionary_codes(
            [1.0, 2.0, 3.0], np.array([2, 1, 2], dtype=np.int32), dictionary
        )
        compact = batch.compact()
        assert compact.code_dictionary == [("a",), ("b",)]
        assert compact.category_codes.tolist() == [0, 1, 0]
        assert compact.categories == batch.categories
        assert compact.compact() is compact

    def test_from_records_keeps_a_batch(self):
        batch = RecordBatch.from_records([rec(1.0), rec(2.0, "b")])
        assert RecordBatch.from_records(batch) is batch

    def test_min_max_timestamp(self):
        batch = RecordBatch.from_records([rec(3.0), rec(1.0), rec(2.0)])
        assert batch.min_timestamp == 1.0
        assert batch.max_timestamp == 3.0


class TestTimeunitAggregation:
    def test_timeunit_indices_match_clock(self, clock):
        timestamps = [0.0, 9.999, 10.0, 25.0, -0.5, 100.0]
        batch = RecordBatch.from_records([rec(t) for t in timestamps])
        assert list(batch.timeunit_indices(clock)) == [
            clock.timeunit_of(t) for t in timestamps
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        delta=st.sampled_from(DELTAS),
        epoch=st.sampled_from(EPOCHS),
        steps=st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=24),
        uniform=st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), max_size=24
        ),
    )
    def test_timeunit_indices_are_exact(self, delta, epoch, steps, uniform):
        """Unit boundaries ``epoch + k·δ``, the floats either side of them,
        arbitrary timestamps (negative offsets included): the vector
        classification is ``np.floor_divide`` and the clock, row for row."""
        grid = np.array([epoch + k * delta for k in steps], dtype=np.float64)
        timestamps = np.concatenate(
            [
                grid,
                np.nextafter(grid, np.inf),
                np.nextafter(grid, -np.inf),
                np.array(uniform, dtype=np.float64),
            ]
        )
        clock = SimulationClock(delta=delta, epoch=epoch)
        batch = RecordBatch.from_dictionary_codes(
            timestamps, np.zeros(len(timestamps), dtype=np.int32), [("leaf",)]
        )
        units = batch.timeunit_indices(clock)
        assert units.dtype == np.int64
        expected = np.floor_divide(timestamps - epoch, delta).astype(np.int64)
        assert units.tolist() == expected.tolist()
        assert units.tolist() == [clock.timeunit_of(t) for t in timestamps.tolist()]

    def test_timeunit_indices_recheck_integral_quotients(self):
        """``1.0 / 0.1`` rounds up to exactly 10 while ``1.0 // 0.1`` is 9:
        the plain ``floor(x / δ)`` is one unit late there, and only the
        recheck of integral quotients puts the record back."""
        clock = SimulationClock(delta=0.1)
        assert np.floor(np.array([1.0]) / 0.1).tolist() == [10.0]
        assert clock.timeunit_of(1.0) == 9
        batch = RecordBatch.from_records([rec(1.0), rec(0.95), rec(1.05)])
        assert batch.timeunit_indices(clock).tolist() == [9, 9, 10]

    @pytest.mark.parametrize("delta", DELTAS)
    def test_timeunit_indices_on_whole_unit_grids(self, delta):
        """40 000 unit boundaries and their neighbours per epoch: equal to
        ``np.floor_divide`` everywhere, where the plain floor is not."""
        plain_wrong = 0
        for epoch in EPOCHS:
            grid = epoch + np.arange(-20_000, 20_000) * delta
            timestamps = np.concatenate(
                [grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf)]
            )
            clock = SimulationClock(delta=delta, epoch=epoch)
            batch = RecordBatch.from_dictionary_codes(
                timestamps, np.zeros(len(timestamps), dtype=np.int32), [("leaf",)]
            )
            expected = np.floor_divide(timestamps - epoch, delta)
            assert np.array_equal(batch.timeunit_indices(clock), expected)
            plain_wrong += int(
                np.count_nonzero(np.floor((timestamps - epoch) / delta) != expected)
            )
        assert plain_wrong > 0

    def test_timeunit_runs_preserve_arrival_order(self, clock):
        # Units: 0, 0, 1, 0, 0, 2 -> four runs, in stream order.
        batch = RecordBatch.from_records(
            [rec(1.0, "a"), rec(2.0, "b"), rec(11.0, "a"),
             rec(3.0, "a"), rec(4.0, "a"), rec(21.0, "c")]
        )
        assert batch.timeunit_runs(clock) == [
            (0, 0, 2), (1, 2, 3), (0, 3, 5), (2, 5, 6)
        ]

    def test_empty_batch_has_no_runs(self, clock):
        assert RecordBatch.empty().timeunit_runs(clock) == []


class TestPartitioning:
    def test_untagged_batch_short_circuits(self):
        batch = RecordBatch.from_records([rec(1.0), rec(2.0)])
        parts = batch.partition_by_key()
        assert len(parts) == 1
        key, part = parts[0]
        assert key is None
        assert part is batch  # no column copies

    def test_partition_by_stream_attribute(self):
        batch = RecordBatch.from_records(
            [rec(1.0, "a", stream="x"), rec(2.0, "b", stream="y"),
             rec(3.0, "c", stream="x"), rec(4.0, "d")]
        )
        parts = dict(batch.partition_by_key())
        assert set(parts) == {"x", "y", None}
        assert [r.category for r in parts["x"]] == [("a",), ("c",)]
        assert [r.timestamp for r in parts["y"]] == [2.0]
        assert [r.timestamp for r in parts[None]] == [4.0]

    def test_partition_keys_in_first_seen_order(self):
        batch = RecordBatch.from_records(
            [rec(1.0, stream="b"), rec(2.0, stream="a"), rec(3.0, stream="b")]
        )
        assert [key for key, _ in batch.partition_by_key()] == ["b", "a"]

    def test_custom_selector(self):
        batch = RecordBatch.from_records([rec(1.0, "a"), rec(11.0, "b")])
        parts = dict(batch.partition_by_key(lambda r: r.category[0]))
        assert set(parts) == {"a", "b"}

    def test_single_key_batch_not_copied(self):
        batch = RecordBatch.from_records([rec(1.0, stream="x"), rec(2.0, stream="x")])
        [(key, part)] = batch.partition_by_key()
        assert key == "x"
        assert part is batch


class TestIterRecordBatches:
    def test_chunking(self):
        records = [rec(float(i)) for i in range(7)]
        batches = list(iter_record_batches(records, 3))
        assert [len(b) for b in batches] == [3, 3, 1]
        assert rows(r for b in batches for r in b) == rows(records)

    def test_invalid_size(self):
        with pytest.raises(StreamError):
            list(iter_record_batches([rec(1.0)], 0))

    def test_empty_iterable(self):
        assert list(iter_record_batches([], 4)) == []


class TestTraceRowCoercion:
    """``add_trace_row`` is where every reader's rows are vetted."""

    def test_accepted_rows_are_coerced(self):
        acc = ColumnAccumulator()
        acc.add_trace_row(1, ["a", "b"])
        acc.add_trace_row("2.5", ("c",), {"k": 1})
        acc.add_trace_row(True, ["d"], {})
        batch = acc.flush()
        assert batch.timestamps.tolist() == [1.0, 2.5, 1.0]
        assert batch.categories == [("a", "b"), ("c",), ("d",)]
        assert batch.attributes == [{}, {"k": 1}, {}]
        assert len(acc) == 0

    def test_all_empty_attributes_drop_the_column(self):
        acc = ColumnAccumulator()
        acc.add_trace_row(1.0, ["a"], {})
        acc.add_trace_row(2.0, ["a"], None)
        assert acc.flush().attributes is None

    @pytest.mark.parametrize(
        "timestamp, labels",
        [
            (float("nan"), ["a"]),
            (float("inf"), ["a"]),
            ("-inf", ["a"]),
            ("NaN", ["a"]),
            (10**400, ["a"]),
            ("later", ["a"]),
            (None, ["a"]),
            (1.0, []),
            (1.0, ()),
            (1.0, "TV"),
            (1.0, b"TV"),
            (1.0, {"TV": 1}),
            (1.0, {"TV"}),
            (1.0, 7),
            (1.0, None),
            (1.0, (label for label in "ab")),
        ],
    )
    def test_rejected_rows_leave_the_columns_untouched(self, timestamp, labels):
        acc = ColumnAccumulator()
        acc.add_trace_row(0.5, ["ok"])
        with pytest.raises(StreamError):
            acc.add_trace_row(timestamp, labels)
        assert len(acc) == 1 and acc.flush().categories == [("ok",)]

    @pytest.mark.parametrize(
        "labels, attributes, complaint",
        [
            # Parent: admitted, then AttributeError in partition_by_key /
            # TypeError in write_trace_columnar, far from where it was read.
            (["a"], [1, 2], "attributes must be a mapping, got list"),
            (["a"], "text", "attributes must be a mapping, got str"),
            (["a"], 7, "attributes must be a mapping, got int"),
            # Parent: admitted as (['a'],), then unhashable at classification.
            ([["a"]], None, "unhashable"),
            (["a", {"b": 1}], None, "unhashable"),
        ],
    )
    def test_hostile_rows_are_refused_where_they_are_read(
        self, labels, attributes, complaint
    ):
        acc = ColumnAccumulator()
        acc.add_trace_row(0.5, ["ok"], {"k": 1})
        with pytest.raises(StreamError, match=complaint):
            acc.add_trace_row(1.0, labels, attributes)
        batch = acc.flush()
        assert len(batch) == 1 and batch.attributes == [{"k": 1}]

    def test_falsy_non_mapping_attributes_still_mean_empty(self):
        acc = ColumnAccumulator()
        for empty in (None, {}, [], "", 0):
            acc.add_trace_row(1.0, ["a"], empty)
        assert acc.flush().attributes is None

