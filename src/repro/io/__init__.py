"""Persistence: trace readers/writers and detector checkpoints.

* CSV / JSON Lines readers and writers for operational records;
* the memory-mapped columnar trace format (:mod:`repro.io.columnar`) with
  zero-copy batch materialization and a format-dispatching
  :func:`read_trace_batches`;
* the JSON checkpoint file of detection engines and sessions
  (:mod:`repro.io.checkpoint`; the classes save and load themselves).
"""

from repro.io.columnar import (
    convert_trace,
    read_batches_columnar,
    read_trace_batches,
    write_trace_columnar,
)
from repro.io.csv_io import read_batches_csv, write_records_csv
from repro.io.jsonl_io import read_batches_jsonl, read_records_jsonl, write_records_jsonl

__all__ = [
    "read_batches_csv",
    "write_records_csv",
    "read_records_jsonl",
    "read_batches_jsonl",
    "write_records_jsonl",
    "read_batches_columnar",
    "write_trace_columnar",
    "read_trace_batches",
    "convert_trace",
]
