"""CSV trace readers and writers.

Operational records are persisted as flat CSV with a timestamp column and one
column per hierarchy level (empty cells for levels deeper than the record's
category).  This mirrors how care-call and crash-log exports typically look
and keeps the traces diffable and spreadsheet-friendly.

:func:`read_batches_csv` loads rows straight into columnar
:class:`~repro.streaming.batch.RecordBatch` chunks — no per-row record objects
are ever built, which is the path feeding ``DetectionEngine.process_batches``.
A batch iterates as :class:`OperationalRecord` objects where records are
wanted.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator

from repro.exceptions import StreamError
from repro.streaming.batch import ColumnAccumulator, RecordBatch
from repro.streaming.record import OperationalRecord

#: Column used for the record timestamp.
TIMESTAMP_COLUMN = "timestamp"
#: Prefix of the per-level category columns (level1, level2, ...).
LEVEL_COLUMN_PREFIX = "level"


def _sorted_level_columns(names: Iterable[str]) -> list[str]:
    """The category columns of a header, ordered by their numeric suffix.

    Shared by both readers so they agree on what counts as a level column
    (``level<digits>``; anything else is ignored as a foreign column).
    """
    numbered = []
    for name in names:
        suffix = name[len(LEVEL_COLUMN_PREFIX):]
        if name.startswith(LEVEL_COLUMN_PREFIX) and suffix.isdigit():
            numbered.append((int(suffix), name))
    return [name for _, name in sorted(numbered)]


def write_records_csv(
    records: Iterable[OperationalRecord], path: str | Path, max_depth: int | None = None
) -> int:
    """Write ``records`` to ``path``; returns the number of rows written.

    ``max_depth`` fixes the number of level columns; when omitted the records
    are materialized first to find the deepest category.
    """
    records = list(records)
    if max_depth is None:
        max_depth = max((len(r.category) for r in records), default=1)
    fieldnames = [TIMESTAMP_COLUMN] + [
        f"{LEVEL_COLUMN_PREFIX}{i}" for i in range(1, max_depth + 1)
    ]
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for record in records:
            row = {TIMESTAMP_COLUMN: repr(record.timestamp)}
            for i, label in enumerate(record.category, start=1):
                if i > max_depth:
                    break
                row[f"{LEVEL_COLUMN_PREFIX}{i}"] = label
            writer.writerow(row)
    return len(records)


def read_batches_csv(
    path: str | Path, batch_size: int = 8192
) -> Iterator[RecordBatch]:
    """Yield columnar :class:`RecordBatch` chunks from a record CSV.

    Row values are appended directly to the batch columns — no intermediate
    :class:`OperationalRecord` objects — and the batches plug straight into
    the vectorized ingestion path.  Blank lines are skipped; a row with a
    timestamp that is not a finite number, or with no category label, is
    refused with :class:`~repro.exceptions.StreamError` naming its line.
    """
    if batch_size < 1:
        raise StreamError(f"batch_size must be >= 1, got {batch_size}")
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or TIMESTAMP_COLUMN not in header:
            raise StreamError(f"{path} is missing the {TIMESTAMP_COLUMN!r} column")
        ts_index = header.index(TIMESTAMP_COLUMN)
        columns = [header.index(name) for name in _sorted_level_columns(header)]
        acc = ColumnAccumulator(batch_size)
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            labels = []
            for i in columns:
                value = row[i].strip() if i < len(row) else ""
                if not value:
                    break
                labels.append(value)
            # Timestamp coercion and the empty-category check live in the
            # shared accumulation path (ColumnAccumulator.add_trace_row),
            # exactly as for JSONL objects — only the cell layout is CSV's.
            try:
                timestamp = row[ts_index] if ts_index < len(row) else ""
                acc.add_trace_row(timestamp, labels)
            except StreamError as exc:
                raise StreamError(f"{path}:{row_number}: {exc}") from exc
            if len(acc) >= batch_size:
                yield acc.flush()
        if len(acc):
            yield acc.flush()
