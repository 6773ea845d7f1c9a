"""The encoded attribute column against a plain ``list[dict]`` oracle.

:class:`~repro.streaming.attributes.EncodedAttributes` keeps rows as JSON
bytes; every operation the ingest path performs on a column (index, iterate,
slice, take, concat, pickle, the ``"stream"`` routing question) must give
what the same operation gives on the decoded list, which this module keeps
as the oracle.
"""

from __future__ import annotations

import json
import pickle
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import StreamError
from repro.streaming.attributes import (
    EncodedAttributes,
    encode_row,
    may_hold_key,
    slice_rows,
    take_rows,
)
from repro.streaming.batch import RecordBatch


# ----------------------------------------------------------------------
# Building a column the way the columnar reader does
# ----------------------------------------------------------------------
def encode(rows, prefix=b"", ensure_ascii=True) -> EncodedAttributes:
    """``rows`` as an encoded column; ``prefix`` bytes sit before the window
    (a column is usually a window into a larger file blob)."""
    chunks, offsets, position = [prefix], [len(prefix)], len(prefix)
    for row in rows:
        if row:
            chunk = json.dumps(row, sort_keys=True, ensure_ascii=ensure_ascii).encode()
            chunks.append(chunk)
            position += len(chunk)
        offsets.append(position)
    offsets = np.asarray(offsets, dtype=np.int64)
    return EncodedAttributes(b"".join(chunks) + b"<tail of the file>", offsets, "t.rcol", 0)


def column_of(kind: str, rows):
    """The three column shapes for the same rows."""
    if kind == "none":
        assert not any(rows)
        return None
    return list(rows) if kind == "list" else encode(rows)


def decoded(column, count):
    return [{}] * count if column is None else list(column)


values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)
keys = st.sampled_from(["stream", "label", "k", "é", "a b", ""]) | st.text(max_size=5)
row_maps = st.just({}) | st.dictionaries(keys, values, max_size=3)
row_lists = st.lists(row_maps, max_size=12)

# ----------------------------------------------------------------------
# Differential: the encoded column == the list oracle
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=row_lists, data=st.data())
def test_sequence_protocol_matches_the_list(rows, data):
    column = encode(rows, prefix=b'{"stream":"before the window"}')
    assert len(column) == len(rows)
    assert list(column) == rows
    for index in range(-len(rows), len(rows)):
        assert column[index] == rows[index]
    for bad in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            column[bad]
    start = data.draw(st.integers(0, len(rows)))
    stop = data.draw(st.integers(start, len(rows)))
    window = column[start:stop]
    assert isinstance(window, EncodedAttributes)
    assert list(window) == rows[start:stop]
    assert column[::2] == rows[::2]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=row_lists, data=st.data())
def test_slice_and_take_match_the_list(rows, data):
    column = encode(rows, prefix=b"xx")
    start = data.draw(st.integers(0, len(rows)))
    stop = data.draw(st.integers(start, len(rows)))
    sliced = slice_rows(column, start, stop)
    if any(rows[start:stop]):
        assert isinstance(sliced, EncodedAttributes)
        assert list(sliced) == rows[start:stop]
        # A view: same blob object, no bytes copied.
        assert sliced._blob is column._blob
    else:
        assert sliced is None  # an all-empty window collapses
    # Unordered, repeated, possibly empty.
    picks = data.draw(
        st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=15)
        if rows
        else st.just([])
    )
    taken = take_rows(column, picks)
    expected = [rows[i] for i in picks]
    if any(expected):
        assert isinstance(taken, EncodedAttributes)
        assert list(taken) == expected
        # A gather: compact bytes, nothing of the source blob rides along.
        assert len(taken._blob) == sum(
            len(json.dumps(row, sort_keys=True)) for row in expected if row
        )
    else:
        assert taken is None
    # A taken column slices and takes again like any other.
    if taken is not None and len(picks) > 1:
        assert decoded(slice_rows(taken, 1, len(picks)), len(picks) - 1) == expected[1:]
        assert decoded(take_rows(taken, [0, 0]), 2) == [expected[0]] * 2


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=row_lists.filter(any))
def test_pickle_round_trip_ships_the_window_only(rows):
    file_blob = b"x" * 100_000  # the rest of the file's attribute section
    column = encode(rows, prefix=file_blob)
    clone = pickle.loads(pickle.dumps(column, protocol=pickle.HIGHEST_PROTOCOL))
    assert isinstance(clone, EncodedAttributes)
    assert list(clone) == rows
    window_bytes = sum(len(json.dumps(r, sort_keys=True)) for r in rows if r)
    size = len(pickle.dumps(column, protocol=pickle.HIGHEST_PROTOCOL))
    assert size < window_bytes + 4 * len(rows) + 200  # tracks the window...
    assert size < len(file_blob) // 10  # ...not the file


# ----------------------------------------------------------------------
# Routing by the "stream" key
# ----------------------------------------------------------------------
def batch_with(column, count):
    return RecordBatch.from_dictionary_codes(
        [float(i) for i in range(count)], [0] * count, [("a", "b")], column
    )


def split_signature(batch):
    return [
        (key, part.timestamps.tolist(), decoded(part.attributes, len(part)))
        for key, part in batch.partition_by_key()
    ]


class CountingColumn(EncodedAttributes):
    """Counts decoded rows (``_decode`` is the only place a row is parsed)."""

    __slots__ = ("decodes",)

    def _decode(self, row, begin, end):
        self.decodes = getattr(self, "decodes", 0) + 1
        return super()._decode(row, begin, end)


def counting(column: EncodedAttributes) -> CountingColumn:
    return CountingColumn(column._blob, column._offsets, column._source, column._first_row)


def test_a_row_is_encoded_with_sorted_keys_in_utf8():
    row = {"z": 1, "a": "é", "m": [True, None]}
    encoded = encode_row(row)
    assert encoded == json.dumps(row, sort_keys=True).encode("utf-8")
    assert encoded.startswith(b'{"a": ')
    assert encode_row(MappingProxyType(row)) == encoded


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=st.lists(
        st.just({})
        | st.fixed_dictionaries(
            {}, optional={"stream": st.sampled_from(["s1", "s2", None]), "k": values}
        ),
        min_size=1,
        max_size=12,
    ),
    ensure_ascii=st.booleans(),
)
def test_tagged_rows_split_exactly_as_the_list_column_does(rows, ensure_ascii):
    expected = split_signature(batch_with(list(rows), len(rows)))
    column = encode(rows, prefix=b'"stream"', ensure_ascii=ensure_ascii)
    assert split_signature(batch_with(column, len(rows))) == expected


def test_key_written_with_an_escape_is_still_found():
    blob = b'{"\\u0073tream": "s1"}{"k": 1}{"\\u0073tream": "s2"}'
    column = EncodedAttributes(blob, [0, 21, 21, 29, len(blob)])
    assert b'"stream"' not in blob
    assert may_hold_key(column, "stream")
    rows = [{"stream": "s1"}, {}, {"k": 1}, {"stream": "s2"}]
    assert list(column) == rows
    assert split_signature(batch_with(column, 4)) == split_signature(
        batch_with(rows, 4)
    )


def test_value_that_merely_contains_the_bytes_routes_nowhere():
    rows = [{"note": 'the "stream" of calls'}, {"label": "stream"}, {}]
    column = encode(rows)
    # The scan may say "maybe" (it does for the first row's quoted word);
    # the answer must still be the list column's: one untagged batch.
    batch = batch_with(column, 3)
    assert split_signature(batch) == split_signature(batch_with(rows, 3))
    [(key, part)] = batch.partition_by_key()
    assert key is None and part is batch


def test_window_with_neither_is_returned_whole_without_decoding():
    rows = [{"injected": True, "label": "flash-0"}, {}, {"customer": "c42"}] * 50
    # "stream" sits in the blob, but outside this column's window.
    column = counting(encode(rows, prefix=b'{"stream": "elsewhere"}'))
    assert not may_hold_key(column, "stream")
    batch = batch_with(column, len(rows))
    [(key, part)] = batch.partition_by_key()
    assert key is None and part is batch
    assert batch.stream_keys() == [None] * len(rows)
    assert getattr(column, "decodes", 0) == 0
    # The operations the sharded coordinator performs decode nothing either.
    part.slice(3, 40).take([0, 5, 5, 2])
    pickle.dumps(part.attributes)
    assert getattr(column, "decodes", 0) == 0


def test_odd_keys_are_answered_conservatively():
    column = encode([{"k": 1}])
    for key in ("a/b", "tab\there", "é", 'q"uote', ""):
        assert may_hold_key(column, key)  # other spellings exist: never "no"
    assert not may_hold_key(column, "stream")
    assert may_hold_key(column, "k")
    assert not may_hold_key(None, "k")
    assert may_hold_key([{}], "k")


# ----------------------------------------------------------------------
# Decoding is where a row's JSON is checked
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "blob, complaint",
    [
        (b'{"k": 1', "malformed attributes"),
        (b"\xff\xfe{}", "malformed attributes"),
        (b"[1, 2]", "must be a JSON object, got list"),
        (b'"text"', "must be a JSON object, got str"),
    ],
)
def test_a_bad_row_names_its_file_and_row(blob, complaint):
    column = EncodedAttributes(b'{"ok": 1}' + blob, [0, 9, 9 + len(blob)], "t.rcol", 40)
    assert column[0] == {"ok": 1}  # a good row beside it still reads
    with pytest.raises(StreamError, match=r"t\.rcol: row 41: .*" + complaint):
        column[1]
    with pytest.raises(StreamError, match="row 41"):
        list(column)
    gathered = column.take([1, 0])
    with pytest.raises(StreamError, match="t.rcol: row 0 of a gathered batch"):
        gathered[0]


# ----------------------------------------------------------------------
# RecordBatch gathers codes, never tuples
# ----------------------------------------------------------------------
def test_take_shares_the_dictionary():
    dictionary = [("a", "x"), ("b", "y"), ("c", "z")]
    rows = [{"k": 1}, {}, {"stream": "s"}, {}]
    batch = RecordBatch.from_dictionary_codes(
        [0.0, 1.0, 2.0, 3.0], [2, 0, 1, 0], dictionary, encode(rows)
    )
    taken = batch.take([3, 0, 0])
    assert taken.code_dictionary is dictionary
    assert list(taken.category_codes) == [0, 2, 2]
    assert taken._categories is None  # no tuple was built
    assert list(taken) == [batch.record(i) for i in (3, 0, 0)]


def test_a_tuple_built_batch_holds_first_appearance_codes():
    categories = [("b",), ("a",), ("b",), ("c",)]
    batch = RecordBatch([0.0, 1.0, 2.0, 3.0], categories, [{}, {"k": 1}, {}, {}])
    assert batch.code_dictionary == [("b",), ("a",), ("c",)]
    assert batch.category_codes.dtype == np.int32
    assert batch.category_codes.tolist() == [0, 1, 0, 2]
    assert batch.categories is categories  # the given list is the cache
    assert batch.slice(1, 3).categories == categories[1:3]
