"""JSON Lines trace readers and writers, and the NDJSON decoder behind them.

JSONL keeps the record's free-form ``attributes`` mapping (customer index,
injected-anomaly labels, ...) that the flat CSV format drops, so it is the
format of choice for traces with ground-truth annotations.

:class:`NdjsonDecoder` is the one place newline-delimited JSON becomes
:class:`~repro.streaming.batch.RecordBatch` columns.  The file readers here
and both service front ends (``POST /ingest`` and the raw socket, see
:mod:`repro.service.http`) hand it bytes — a whole body or one block at a
time — and get batches back, so what counts as a line, which lines are
records and how a bad one is reported is the same at every edge.  The
batches hold what an ``.rcol`` file holds: ``float64`` timestamps, one
``int32`` dictionary code per record, the decoder's cumulative category
dictionary (one per tenant, bounded — see
:class:`~repro.streaming.batch.ColumnAccumulator`) and the attribute rows.

The contract is per-line ``json.loads``: a line is a record exactly when
``json.loads`` of its bytes gives one, and a bad line's message is
``json.loads``' own.  ``orjson`` parses each line straight from its bytes,
in about two thirds of the stdlib scanner's time — time the decoding thread
no longer holds the GIL the detection worker needs.  ``json.loads`` decides
every line ``orjson`` refuses (BOMs, UTF-16/32, ``NaN``, ``1e999``, lone
surrogates, syntax errors) and every line ``orjson`` would read
differently: integers of 19 or more digits, which it turns into floats, and
nesting ``json.loads`` refuses with ``RecursionError``, which a line of at
most :data:`_ORJSON_MAX_LINE` bytes cannot reach.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Iterator

import orjson

from repro.exceptions import StreamError
from repro.streaming.batch import ColumnAccumulator, RecordBatch
from repro.streaming.record import OperationalRecord

#: How much a streaming reader (file, raw socket) hands the decoder at a time.
READ_BLOCK_BYTES = 64 * 1024
#: Longest unterminated line a streaming reader carries between blocks; past
#: it the stream is refused, so a peer that never sends a newline cannot make
#: the reader hold its whole stream in memory.
MAX_LINE_BYTES = 1024 * 1024

_orjson_loads = orjson.loads
#: Longest line ``orjson`` parses: an accepted document this long nests at
#: most 512 deep, which ``json.loads`` decodes too; longer lines go to it.
_ORJSON_MAX_LINE = 1024
#: A line with a run of this many digits may hold an integer ``orjson``
#: reads as a float (past the 64-bit range); it goes to ``json.loads``.  The
#: run is found as zeros in a copy with every digit made ``0``: a translate
#: and a substring search cost a tenth of ``re.search(rb"\d{19}")``.
_LONG_DIGITS = b"0" * 19
_DIGITS_TO_ZERO = bytes.maketrans(b"0123456789", b"0" * 10)


class NdjsonDecodeError(StreamError):
    """A line of an NDJSON stream is not an acceptable record.

    ``line_number`` is 1-based over the physical lines of the stream (blank
    ones included); ``reason`` says what is wrong with that line.
    """

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class NdjsonDecoder:
    """Strict NDJSON bytes → per-tenant dictionary-coded :class:`RecordBatch`
    columns.

    Lines are what ``bytes.splitlines`` says they are (``\\n``, ``\\r\\n`` or a
    lone ``\\r`` ends one), stripped of ASCII whitespace; blank lines are
    skipped but numbered.  Every other line must be exactly one JSON object
    (what ``json.loads`` of the line's bytes returns) with a ``category`` and
    a ``timestamp`` that :meth:`ColumnAccumulator.add_trace_row
    <repro.streaming.batch.ColumnAccumulator.add_trace_row>` accepts, and an
    optional ``attributes`` mapping.  A line is decoded on its own — never
    joined with its neighbours, which would let ``{"a":1},{"c":2}`` on one
    line or an object split over two pass as records — so acceptance is per
    line and an error names the line.

    With ``is_known_tenant`` given, records are routed one by one: a
    non-null ``"tenant"`` key names the record's tenant, otherwise it goes
    to ``default_tenant``; an empty, missing-without-default or unknown
    tenant is an error.  Without it every record belongs to
    ``default_tenant`` and a ``"tenant"`` key is ignored like any other
    extra key (the file and raw-socket contract).

    Each tenant's rows flush as a batch once ``batch_size`` of them are
    held, in arrival order; ``final`` flushes the tails in first-seen tenant
    order.  Nothing of a :meth:`feed` is returned when it raises, so a
    caller that admits only what :meth:`feed` returned admits all of a body
    or none of it.
    """

    def __init__(
        self,
        batch_size: int,
        *,
        default_tenant: "str | None" = None,
        is_known_tenant: "Callable[[str], bool] | None" = None,
        first_line: int = 1,
    ):
        if batch_size < 1:
            raise StreamError(f"batch_size must be >= 1, got {batch_size}")
        self._batch_size = batch_size
        self._default_tenant = default_tenant
        self._is_known_tenant = is_known_tenant
        self._accumulators: "dict[str | None, ColumnAccumulator]" = {}
        if is_known_tenant is None:
            self._accumulators[default_tenant] = ColumnAccumulator(batch_size)
        self._ready: "list[tuple[str | None, RecordBatch]]" = []
        self._carry = b""
        self._lines_seen = first_line - 1

    def feed(
        self, data: bytes, final: bool = False
    ) -> "list[tuple[str | None, RecordBatch]]":
        """Decode the next bytes of the stream; return the batches they fill.

        Unless ``final``, an unterminated last line is held back and
        prepended to the next call's ``data``.  Raises
        :class:`NdjsonDecodeError` at the first bad line; the stream ends
        there (what followed the line is discarded), and
        ``feed(b"", final=True)`` then returns the records that preceded it.
        """
        if self._carry:
            data, self._carry = self._carry + data, b""
        carry = b""
        if not final:
            # A "\r" at the very end may be the first half of a "\r\n" the
            # next block completes: it stays with the carried line.
            limit = len(data) - 1 if data.endswith(b"\r") else len(data)
            end = max(data.rfind(b"\n", 0, limit), data.rfind(b"\r", 0, limit)) + 1
            if end < len(data):
                data, carry = data[:end], data[end:]

        batch_size = self._batch_size
        default_tenant = self._default_tenant
        is_known_tenant = self._is_known_tenant
        routed = is_known_tenant is not None
        accumulators = self._accumulators
        ready = self._ready
        tenant = current = default_tenant
        if routed:
            current = acc = add_row = None  # looked up at the first record
            room = 0
        else:
            acc = accumulators[default_tenant]
            add_row = acc.add_trace_row
            room = batch_size - len(acc)
        # One search over the block spares the lines of a block without a
        # long digit run a search each.
        long_digits = _LONG_DIGITS in data.translate(_DIGITS_TO_ZERO)
        line_number = self._lines_seen
        try:
            for raw in data.splitlines():
                line_number += 1
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    if len(raw) > _ORJSON_MAX_LINE or (
                        long_digits and _LONG_DIGITS in raw.translate(_DIGITS_TO_ZERO)
                    ):
                        raise ValueError
                    record = _orjson_loads(raw)
                except ValueError:  # orjson.JSONDecodeError, or guarded from it
                    try:
                        record = json.loads(raw)
                    except (ValueError, RecursionError) as exc:
                        # JSONDecodeError, UnicodeDecodeError, or nesting
                        # deeper than the interpreter's recursion limit.
                        raise NdjsonDecodeError(
                            line_number, f"invalid JSON: {exc}"
                        ) from exc
                if type(record) is not dict:
                    raise NdjsonDecodeError(
                        line_number,
                        f"expected a JSON object, got {type(record).__name__}",
                    )
                if routed:
                    # "key absent" (or null) falls back to the default
                    # tenant; an explicit empty string is a routing bug on
                    # the producer side and is rejected rather than silently
                    # re-routed to the default.
                    tenant = record.get("tenant")
                    if tenant is None:
                        tenant = default_tenant
                        if tenant is None:
                            raise NdjsonDecodeError(
                                line_number,
                                "record names no tenant and the service has "
                                "no default tenant",
                            )
                    else:
                        tenant = str(tenant)
                        if not tenant:
                            raise NdjsonDecodeError(
                                line_number,
                                "tenant must not be empty (omit the key to "
                                "use the default tenant)",
                            )
                    if tenant != current:
                        acc = accumulators.get(tenant)
                        if acc is None:
                            if not is_known_tenant(tenant):
                                raise NdjsonDecodeError(
                                    line_number, f"unknown tenant {tenant!r}"
                                )
                            acc = accumulators[tenant] = ColumnAccumulator(batch_size)
                        current = tenant
                        add_row = acc.add_trace_row
                        room = batch_size - len(acc)
                try:
                    labels = record["category"]
                    timestamp = record["timestamp"]
                except KeyError as exc:
                    raise NdjsonDecodeError(
                        line_number, f"malformed record object: {exc!r}"
                    ) from exc
                try:
                    add_row(timestamp, labels, record.get("attributes"))
                except StreamError as exc:
                    raise NdjsonDecodeError(line_number, str(exc)) from exc
                room -= 1
                if not room:
                    ready.append((tenant, acc.flush()))
                    room = batch_size
            if len(carry) > MAX_LINE_BYTES:
                raise NdjsonDecodeError(
                    line_number + 1, f"line is longer than {MAX_LINE_BYTES} bytes"
                )
        finally:
            self._lines_seen = line_number
        self._carry = carry
        self._ready = []
        if final:
            for tenant, acc in accumulators.items():
                if len(acc):
                    ready.append((tenant, acc.flush()))
        return ready


def write_records_jsonl(records: Iterable[OperationalRecord], path: str | Path) -> int:
    """Write one JSON object per record; returns the number of rows written."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def read_batches_jsonl(
    path: str | Path, batch_size: int = 8192
) -> Iterator[RecordBatch]:
    """Yield columnar :class:`RecordBatch` chunks from a record JSONL file.

    Parsed values land directly in the batch columns (including the
    attribute column, so engine stream-key routing still works) without
    building per-row record objects; the batches share the file's
    cumulative category dictionary.
    """
    decoder = NdjsonDecoder(batch_size)
    path = Path(path)
    with path.open("rb") as handle:
        final = False
        while not final:
            block = handle.read(READ_BLOCK_BYTES)
            final = not block
            try:
                batches = decoder.feed(block, final)
            except NdjsonDecodeError as exc:
                raise StreamError(f"{path}:{exc.line_number}: {exc.reason}") from exc
            for _, batch in batches:
                yield batch


def read_records_jsonl(path: str | Path) -> Iterator[OperationalRecord]:
    """Yield records from a JSONL file written by :func:`write_records_jsonl`."""
    for batch in read_batches_jsonl(path):
        yield from batch
