"""Differential suite: :class:`NdjsonDecoder` against a per-line ``json.loads``.

The decoder's fast lane (C scanner on a decoded line, one accumulator call
per record, block-wise feeding) has to be indistinguishable from the obvious
loop: split the bytes into lines, ``json.loads`` each, route it, append it.
That loop lives here and nowhere under ``src/`` — every case below runs both
and requires equal batches (timestamps, categories, attribute-column
presence, per-tenant order, flush points) or an equal ``(line number,
message)`` and an equal set of records before the bad line.  The loop keeps
its categories as one tuple per record; the decoder's batches are
dictionary-coded, and are compared through ``batch.categories``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.io.jsonl_io as jsonl_io
from repro.exceptions import StreamError
from repro.io.jsonl_io import NdjsonDecodeError, NdjsonDecoder
from repro.streaming.batch import ColumnAccumulator, RecordBatch

KNOWN = ("alpha", "beta", "7")
SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def oracle(payload: bytes, batch_size: int, default_tenant, routed: bool):
    """``(batches, error)``: the batches built before ``error`` (a ``(line
    number, message)`` pair, or None when every line was taken)."""
    # ``add_trace_row`` is THE coercion, so the oracle vets a row with it —
    # on a scratch accumulator; the columns it compares are its own tuples.
    vet = ColumnAccumulator()
    held: dict = {} if routed else {default_tenant: []}
    batches, error = [], None

    def flush(tenant):
        rows = held[tenant]
        stamps, categories, attributes = zip(*rows)
        rows.clear()
        batch = RecordBatch.from_columns(
            stamps, categories, list(attributes) if any(attributes) else None
        )
        batches.append((tenant, batch))

    for number, raw in enumerate(payload.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                raise StreamError(f"expected a JSON object, got {type(data).__name__}")
            tenant = default_tenant
            if routed and data.get("tenant") is not None:
                tenant = str(data["tenant"])
                if not tenant:
                    raise StreamError(
                        "tenant must not be empty (omit the key to use the "
                        "default tenant)"
                    )
            if routed and tenant is None:
                raise StreamError(
                    "record names no tenant and the service has no default tenant"
                )
            if tenant not in held and tenant not in KNOWN:
                raise StreamError(f"unknown tenant {tenant!r}")
            labels, timestamp = data["category"], data["timestamp"]
            vet.add_trace_row(timestamp, labels, data.get("attributes"))
            held.setdefault(tenant, []).append(
                (vet.timestamps[-1], tuple(labels), data.get("attributes") or {})
            )
        except KeyError as exc:
            error = (number, f"malformed record object: {exc!r}")
        except StreamError as exc:
            error = (number, str(exc))
        except ValueError as exc:  # from json.loads: bad JSON or bad encoding
            error = (number, f"invalid JSON: {exc}")
        if error:
            break
        if len(held[tenant]) == batch_size:
            flush(tenant)
    for tenant, rows in held.items():
        if rows:
            flush(tenant)
    return batches, error


def decode(payload: bytes, batch_size: int, default_tenant, routed: bool, cuts=()):
    """The decoder fed ``payload`` in the pieces ``cuts`` delimit."""
    decoder = NdjsonDecoder(
        batch_size,
        default_tenant=default_tenant,
        is_known_tenant=KNOWN.__contains__ if routed else None,
    )
    edges = [0, *sorted(min(cut, len(payload)) for cut in cuts), len(payload)]
    batches, error = [], None
    try:
        for start, stop in zip(edges, edges[1:]):
            batches += decoder.feed(payload[start:stop])
        batches += decoder.feed(b"", final=True)
    except NdjsonDecodeError as exc:
        error = (exc.line_number, exc.reason)
        batches += decoder.feed(b"", final=True)
    return batches, error


def columns(batches):
    return [
        (tenant, batch.timestamps.tolist(), batch.categories, batch.attributes)
        for tenant, batch in batches
    ]


def assert_same(payload: bytes, batch_size=3, default_tenant="alpha", cuts=()):
    for routed in (True, False):
        expected_batches, expected_error = oracle(
            payload, batch_size, default_tenant, routed
        )
        for pieces in {(), tuple(cuts)}:
            batches, error = decode(payload, batch_size, default_tenant, routed, pieces)
            assert error == expected_error
            assert columns(batches) == columns(expected_batches)


# ----------------------------------------------------------------------
# Generated payloads
# ----------------------------------------------------------------------
labels = st.text(min_size=1, max_size=6)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
attribute_maps = st.dictionaries(st.text(max_size=4), json_values, max_size=3)
tenants = st.sampled_from(["alpha", "beta", 7, None, "", "ghost"])
odd_timestamps = st.sampled_from(
    ["12.5", "nan", "x", None, True, float("nan"), float("inf"), -float("inf"), 10**400]
)
odd_categories = st.sampled_from([[], "TV", {"a": 1}, 5, None, ["a", 1]])


@st.composite
def record_lines(draw) -> str:
    """One line of JSON text: mostly a good record, sometimes not quite."""
    record = {
        "timestamp": draw(st.floats(0, 1e6) | st.integers(0, 10**6) | odd_timestamps),
        "category": draw(st.lists(labels, min_size=1, max_size=4) | odd_categories),
    }
    if draw(st.booleans()):
        record["attributes"] = draw(attribute_maps | st.none())
    if draw(st.integers(0, 3)) == 0:
        record["tenant"] = draw(tenants)
    record.pop(draw(st.sampled_from([None] * 8 + ["timestamp", "category"])), None)
    text = json.dumps(
        record, ensure_ascii=draw(st.booleans()), sort_keys=draw(st.booleans())
    )
    if draw(st.integers(0, 9)) == 0:
        not_a_record = ["[1, 2]", "3", '"s"', "null", "{", "{'a': 1}", "\x00"]
        mangled = [text[:-1], text + "x", text + " " + text, text + "," + text]
        text = draw(st.sampled_from(not_a_record + mangled))
    return text


@st.composite
def payloads(draw) -> bytes:
    """Lines with assorted padding and terminators, then maybe one mutation
    of the bytes: a BOM, a stray byte anywhere, or another encoding."""
    pieces = []
    for text in draw(st.lists(record_lines(), max_size=8)):
        pad_left = draw(st.sampled_from(["", "", " ", "\t", "\x0b \x0c"]))
        pad_right = draw(st.sampled_from(["", "", " ", "\t\t", " \x0c"]))
        ending = draw(st.sampled_from(["\n", "\n", "\r\n", "\r", "\n\n", "\n \t\n"]))
        pieces.append(pad_left + text + pad_right + ending)
    body = "".join(pieces).encode()
    if pieces and draw(st.booleans()):
        body = body.rstrip(b"\r\n")  # no final newline
    mutation = draw(st.integers(0, 11))
    if mutation == 0:
        body = b"\xef\xbb\xbf" + body
    elif mutation == 1 and body:
        at = draw(st.integers(0, len(body)))
        stray = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\n", b",", b"\r"]
        body = body[:at] + draw(st.sampled_from(stray)) + body[at:]
    elif mutation == 2:
        encoding = draw(st.sampled_from(["utf-16", "utf-16-le", "utf-32-be"]))
        body = body.decode().encode(encoding)
    return body


@SETTINGS
@given(
    payload=payloads(),
    batch_size=st.sampled_from([1, 2, 3, 100]),
    default_tenant=st.sampled_from(["alpha", None]),
    cuts=st.lists(st.integers(0, 400), max_size=4),
)
def test_decoder_equals_per_line_oracle(payload, batch_size, default_tenant, cuts):
    assert_same(payload, batch_size, default_tenant, cuts)


@SETTINGS
@given(payload=payloads())
def test_every_split_point_of_a_payload_decodes_alike(payload):
    """Block boundaries are invisible: byte-at-a-time equals all-at-once."""
    whole = decode(payload, 2, "alpha", routed=True)
    trickled = decode(payload, 2, "alpha", routed=True, cuts=range(len(payload)))
    assert trickled[1] == whole[1]
    assert columns(trickled[0]) == columns(whole[0])


# ----------------------------------------------------------------------
# Targeted payloads
# ----------------------------------------------------------------------
GOOD = b'{"timestamp": 1.5, "category": ["a", "b"]}'
GOOD2 = b'{"timestamp": 2, "category": ["c"], "attributes": {"k": [1, {"z": null}]}}'


@pytest.mark.parametrize(
    "payload, bad_line",
    [
        (GOOD + b"\n" + GOOD2 + b"\n", None),
        (b"", None),
        (b"\n \t\n\r\n\r", None),
        (GOOD + b"\r\n" + GOOD2 + b"\r" + GOOD, None),  # CRLF, lone CR, no final newline
        (b"  " + GOOD + b" \t \n\x0b" + GOOD2 + b"\x0c\n", None),
        (b"\xef\xbb\xbf" + GOOD + b"\n" + GOOD2 + b"\n", None),  # UTF-8 BOM
        (b"\n\n" + GOOD + b"\n\n\n" + b"nope\n", 6),  # blank lines are numbered
        (GOOD + b" " + GOOD2 + b"\n", 1),  # two objects on one line
        (GOOD + b"," + GOOD2 + b"\n", 1),
        (GOOD[:20] + b"\n" + GOOD[20:] + b"\n", 1),  # one object over two lines
        (GOOD2[:30] + b"\n" + GOOD2[30:50] + b"\n" + GOOD2[50:] + b"\n", 1),
        # A joined-array parse ("[" + ",".join(lines) + "]") takes these three
        # lines for three values; none of them is a record.
        (b'{"a":1},{"c":2}\n{"b":[1\n2]}\n', 1),
        (GOOD + b'\n{"timestamp": 1, "category": ["x\n' + b'"]}\n', 2),
        (GOOD + b'\n{"category": ["\xff"], "timestamp": 1}\n', 2),  # invalid UTF-8
        (GOOD.decode().encode("utf-16"), None),  # json.loads sniffs it: one line, accepted
        ((GOOD + b"\n" + GOOD).decode().encode("utf-16-le"), 2),
        (b'{"timestamp": NaN, "category": ["a"]}\n', 1),
        (GOOD + b'\n{"timestamp": Infinity, "category": ["a"]}\n', 2),
        (GOOD + b'\n{"timestamp": -Infinity, "category": ["a"]}\n', 2),
        (GOOD + b'\n{"timestamp": "nan", "category": ["a"]}\n', 2),
        (GOOD + b'\n{"timestamp": 1e999, "category": ["a"]}\n', 2),
        (b'{"timestamp": 1, "category": "TV"}\n', 1),
        (b'{"timestamp": 1, "category": {"TV": 1}}\n', 1),
        (b'{"timestamp": 1, "category": []}\n', 1),
        (GOOD + b'\n{"timestamp": 1, "category": ["a"], "attributes": [1, 2]}\n', 2),
        (GOOD + b'\n{"timestamp": 1, "category": ["a"], "attributes": "x"}\n', 2),
        (GOOD + b'\n{"timestamp": 1, "category": ["a"], "attributes": []}\n', None),
        (GOOD + b'\n{"timestamp": 1, "category": [["a"]]}\n', 2),
        (GOOD + b'\n{"timestamp": 1, "category": ["a", {"b": 1}]}\n', 2),
        (b'{"timestamp": 1}\n', 1),
        (b'{"category": ["a"]}\n', 1),
        (b"[1, 2]\n", 1),
        (b'{"timestamp": 1, "category": ["a"], "tenant": "beta"}\n' + GOOD + b"\n"
         + b'{"timestamp": 3, "category": ["a"], "tenant": "beta"}\n'
         + b'{"timestamp": 4, "category": ["a"], "tenant": 7}\n' + GOOD2, None),
        (GOOD + b'\n{"timestamp": 1, "category": ["a"], "tenant": ""}\n', 2),
        (GOOD + b'\n{"timestamp": 1, "category": ["a"], "tenant": "ghost"}\n', 2),
        (GOOD + b'\n{"timestamp": 1, "category": ["a"], "tenant": null}\n', None),
    ],
)
@pytest.mark.parametrize("batch_size", [1, 2, 1000])
def test_targeted_payloads(payload, bad_line, batch_size):
    assert_same(payload, batch_size, cuts=range(0, len(payload), 7))
    # ``bad_line`` is what the oracle says too (routed: tenant keys count).
    error = oracle(payload, batch_size, "alpha", routed=True)[1]
    assert (error and error[0]) == bad_line


def test_per_tenant_order_and_flush_points():
    rows = [("alpha", 1), ("beta", 2), ("alpha", 3)]
    rows += [("alpha", 4), ("beta", 5), ("alpha", 6)]
    payload = b"".join(
        json.dumps({"timestamp": ts, "category": ["c"], "tenant": tenant}).encode() + b"\n"
        for tenant, ts in rows
    )
    batches, error = decode(payload, 2, None, routed=True)
    assert error is None
    # alpha fills at ts 3 and again at 6, before beta (filled at 5, flushed
    # in between) — arrival order of the *flushes*, tails in first-seen order.
    assert [(t, b.timestamps.tolist()) for t, b in batches] == [
        ("alpha", [1.0, 3.0]),
        ("beta", [2.0, 5.0]),
        ("alpha", [4.0, 6.0]),
    ]
    assert all(batch.attributes is None for _, batch in batches)


def test_a_failed_feed_returns_nothing_but_keeps_what_preceded_the_bad_line():
    decoder = NdjsonDecoder(2, default_tenant="alpha")
    payload = GOOD + b"\n" + GOOD + b"\n" + GOOD2 + b"\nbroken\n" + GOOD + b"\n"
    with pytest.raises(NdjsonDecodeError) as caught:
        decoder.feed(payload)
    assert caught.value.line_number == 4
    assert str(caught.value).startswith("line 4: invalid JSON: ")
    rest = decoder.feed(b"", final=True)
    # Two full batches' worth before the bad line; nothing after it.
    assert [len(batch) for _, batch in rest] == [2, 1]


def test_first_line_offsets_the_numbering():
    decoder = NdjsonDecoder(2, first_line=2)
    with pytest.raises(NdjsonDecodeError, match="^line 3: "):
        decoder.feed(GOOD + b"\nbroken\n")


def test_batch_size_must_be_positive():
    with pytest.raises(StreamError, match="batch_size must be >= 1"):
        NdjsonDecoder(0)


def test_an_endless_line_is_refused(monkeypatch):
    monkeypatch.setattr(jsonl_io, "MAX_LINE_BYTES", 64)
    decoder = NdjsonDecoder(10)
    assert decoder.feed(GOOD + b"\n" + b"x" * 64) == []
    with pytest.raises(NdjsonDecodeError, match="^line 2: line is longer than 64"):
        decoder.feed(b"x")
    [(_, batch)] = decoder.feed(b"", final=True)
    assert len(batch) == 1
