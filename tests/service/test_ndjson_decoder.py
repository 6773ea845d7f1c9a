"""Differential suite: :class:`NdjsonDecoder` against a per-line ``json.loads``.

The decoder's fast lane (``orjson`` on each line's bytes, ``json.loads`` for
the lines ``orjson`` refuses or is kept from, one accumulator call per
record, block-wise feeding) has to be indistinguishable from the obvious
loop: split the bytes into lines, ``json.loads`` each, route it, append it.
That loop lives here and nowhere under ``src/`` — every case below runs both
and requires equal batches (timestamps, categories, attributes, per-tenant
order, flush points) or an equal ``(line number, message)`` and an equal set
of records before the bad line.  Batches are compared by ``repr``, so a
value must also keep its type (an integer past 64 bits that came back as an
equal float) and its sign (``-0.0``).  The loop keeps its categories as one
tuple per record; the decoder's batches are dictionary-coded, and are
compared through ``batch.categories``.

The two places ``orjson`` accepts a line and reads it differently from
``json.loads`` — integers of 19 or more digits, and nesting past the
interpreter's recursion limit — each have targeted payloads below, and the
generators draw integers past 64 bits and number text beyond ``repr``.
"""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal, localcontext

import orjson
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
        except (ValueError, RecursionError) as exc:  # from json.loads
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
        (tenant, repr((batch.timestamps.tolist(), batch.categories, batch.attributes)))
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
#: Integers past both 64-bit ranges, which ``orjson`` reads as floats.
EDGE_INTEGERS = [
    2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, 10**25, -(10**25)
]
big_integers = st.sampled_from(EDGE_INTEGERS) | st.integers(-(10**40), 10**40)


def _raw(text: str) -> str:
    """A placeholder :func:`_unquote_raw` swaps for ``text`` unquoted, so a
    line can carry number text ``json.dumps`` would never write."""
    return f"@@{text}@@"


def _unquote_raw(text: str) -> str:
    return re.sub(r'"@@([-+.eE0-9]*)@@"', r"\1", text)


#: JSON number text beyond ``repr``: up to 40 integer and 40 fraction digits
#: and a three-digit exponent (``1e999`` and ``1e-400`` included).
number_texts = st.from_regex(
    r"-?(0|[1-9][0-9]{0,39})(\.[0-9]{1,40})?([eE][-+]?[0-9]{1,3})?", fullmatch=True
).map(_raw)
labels = st.text(min_size=1, max_size=6) | big_integers
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | big_integers
    | number_texts
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
        "timestamp": draw(
            st.floats(0, 1e6)
            | st.integers(0, 10**6)
            | big_integers
            | number_texts
            | odd_timestamps
        ),
        "category": draw(st.lists(labels, min_size=1, max_size=4) | odd_categories),
    }
    if draw(st.booleans()):
        record["attributes"] = draw(attribute_maps | st.none())
    if draw(st.integers(0, 3)) == 0:
        record["tenant"] = draw(tenants)
    record.pop(draw(st.sampled_from([None] * 8 + ["timestamp", "category"])), None)
    text = _unquote_raw(
        json.dumps(record, ensure_ascii=draw(st.booleans()), sort_keys=draw(st.booleans()))
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


# ----------------------------------------------------------------------
# Targeted payloads: where orjson and json.loads part ways
# ----------------------------------------------------------------------
def _midpoint(x: float) -> str:
    """The exact decimal halfway between ``x`` and the next double up."""
    with localcontext() as context:
        context.prec = 2000
        return str((Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2)


#: Number text with 17 to 40 (and more) significant digits: halfway points
#: between doubles, just either side of them, subnormals, underflow to a
#: signed zero, overflow to infinity.  Texts whose digit runs stay under 19
#: reach orjson; the others go to json.loads — both must round like it.
NUMBER_TEXTS = [
    "0.30000000000000004",
    "1234567890.1234567",
    "1700000000.123456789012345678",
    "123456789.123456789012345678901234567890",
    "9007199254740993.0",  # 2**53 + 1: halfway, rounds to even (down)
    "9007199254740995",  # 2**53 + 3: halfway, rounds to even (up)
    "9.007199254740993e15",
    "9007199254740993.000000000001",  # just past halfway: rounds up
    "18014398509481990.0",  # 2**54 + 6: halfway
    "144115188075855888.0",  # 2**57 + 16: halfway, 18 digits
    "1.0000000000000001",
    "1.00000000000000011",
    _midpoint(1.0),
    _midpoint(0.1),
    _midpoint(1700000000.5),
    _midpoint(1e300),
    _midpoint(2.2250738585072014e-308),
    "5e-324",
    "4.9406564584124654e-324",
    "2.4703282292062327e-324",  # below halfway to the least subnormal: 0.0
    "2.4703282292062328e-324",  # above it: 5e-324
    "2.2250738585072011e-308",
    "1e-400",
    "-1e-400",
    "-0.0",
    "-0",
    "0e0",
    "1.7976931348623157e308",
    "1.7976931348623158e308",
    "1.7976931348623159e308",  # json.loads: inf
    "1e999",
]


def _line(timestamp="1", category='["a"]', attributes=None) -> bytes:
    text = f'{{"timestamp": {timestamp}, "category": {category}'
    if attributes is not None:
        text += f', "attributes": {attributes}'
    return (text + "}").encode()


def _padded_line(length: int) -> bytes:
    """A record line of exactly ``length`` bytes."""
    line = _line(attributes='{"pad": "", "n": 18446744073709551616}')
    return line.replace(b'"pad": ""', b'"pad": "' + b"x" * (length - len(line)) + b'"')


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


WIDE_PAYLOADS = (
    # Integers past 64 bits as timestamps, labels and attribute values.
    [(_line(timestamp=str(value)), None) for value in EDGE_INTEGERS]
    + [(_line(category=f'["a", {value}]'), None) for value in EDGE_INTEGERS]
    + [
        (_line(attributes=f'{{"n": {value}, "m": [{value}]}}'), None)
        for value in EDGE_INTEGERS
    ]
    + [(_line(attributes=f'{{"{value}": {value}}}'), None) for value in EDGE_INTEGERS]
    # Decimal text as timestamps and as attribute values.
    + [
        (_line(timestamp=text), 2 if text in ("1.7976931348623159e308", "1e999") else None)
        for text in NUMBER_TEXTS
    ]
    + [(_line(attributes=f'{{"x": {text}}}'), None) for text in NUMBER_TEXTS]
    + [
        # Duplicate keys: the last one wins, in the first one's place.
        (b'{"timestamp": 1, "timestamp": 2, "category": ["a"]}', None),
        (b'{"category": ["a"], "timestamp": 1, "category": ["b"]}', None),
        (_line(attributes='{"k": 1, "j": 2, "k": 3}'), None),
        (_line(attributes='{"k": 1}, "attributes": {"j": 2}'), None),
        (b'{"tenant": "beta", "timestamp": 1, "category": ["a"], "tenant": "ghost"}', 2),
        # Surrogates: a paired escape, lone ones (orjson refuses them,
        # json.loads takes them), a reversed pair, raw surrogate bytes (which
        # json.loads decodes with "surrogatepass"), a raw 4-byte character.
        (
            _line(
                category=r'["\ud83d\ude00"]',
                attributes=r'{"\ud83d\ude00": "x\ud83d\ude00"}',
            ),
            None,
        ),
        (_line(category=r'["\ud800"]'), None),
        (_line(category=r'["\ude00\ud83d"]', attributes=r'{"\udfff": "\ud800x"}'), None),
        (_line().replace(b'"a"', b'"\xed\xa0\x80"'), None),
        (_line(category='["\U0001f600"]'), None),
        # Nesting: inside the length bound (orjson), past it but inside the
        # recursion limit, and past the recursion limit.
        (_line(attributes=f'{{"n": {_nested(400)}}}'), None),
        (_line(attributes=f'{{"n": {_nested(500)}}}'), None),
        (_line(attributes=f'{{"n": {_nested(1100)}}}'), 2),
        (_line(attributes='{"n": ' + '{"a": ' * 1100 + "1" + "}" * 1100 + "}"), 2),
        (_line(attributes=f'{{"n": {_nested(100_000)}}}'), 2),
        (_line(category=f'["a", {_nested(1100)}]'), 2),
        # Lines at the length bound, with an integer orjson would misread.
        (_padded_line(1023), None),
        (_padded_line(1024), None),
        (_padded_line(1025), None),
        (b" \t" + _padded_line(1024) + b"\x0c ", None),
    ]
)


@pytest.mark.parametrize("line, bad_line", WIDE_PAYLOADS)
@pytest.mark.parametrize("batch_size", [1, 1000])
def test_lines_orjson_could_read_differently(line, bad_line, batch_size):
    payload = GOOD + b"\n" + line + b"\n" + GOOD2 + b"\n"
    assert_same(payload, batch_size, cuts=range(0, len(payload), max(len(payload) // 5, 1)))
    error = oracle(payload, batch_size, "alpha", routed=True)[1]
    assert (error and error[0]) == bad_line


def test_the_wide_payloads_reach_both_parsers():
    """The length bound and the digit guard each route some of the lines
    above to json.loads, and orjson parses the rest: the suite exercises
    both sides of both guards."""
    lines = [line.strip() for line, _ in WIDE_PAYLOADS]
    long_lines = {line for line in lines if len(line) > jsonl_io._ORJSON_MAX_LINE}
    digits = jsonl_io._DIGITS_TO_ZERO
    digit_lines = {line for line in lines if jsonl_io._LONG_DIGITS in line.translate(digits)}
    assert jsonl_io._ORJSON_MAX_LINE == 1024
    assert len(long_lines) >= 5 and len(digit_lines) >= 3 * len(EDGE_INTEGERS)
    assert len(set(lines) - long_lines - digit_lines) >= 40


def test_orjson_disagrees_where_the_guards_stand():
    """Why the guards exist: unguarded, orjson reads a 2**64 label as a float
    and parses nesting json.loads refuses.  If an orjson release stops doing
    either, its guard can go."""
    assert type(orjson.loads(b"[18446744073709551616]")[0]) is float
    assert orjson.loads(_nested(1100).encode()) is not None
    with pytest.raises(RecursionError):
        json.loads(_nested(1100))


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
