"""Streaming substrate: records, batches, streams and clocks.

Implements the paper's input abstraction (Section III) and the input side of
Step 1 of the system overview (Fig. 3(a)-(b)): operational records
``(category, time)`` arrive as a time-ordered stream, and the clock maps each
timestamp to its fixed-width timeunit.  Classifying records into timeunits
and closing them is the session's job
(:class:`~repro.engine.session.DetectionSession`).

A stream is written as row-oriented :class:`OperationalRecord` objects or
read straight into column-oriented :class:`RecordBatch` chunks by the
``repro.io`` batch loaders; sessions and engines ingest batches only, so
records reach them chunked by :func:`iter_record_batches` (a lone record is
a batch of one).
"""

from repro.streaming.batch import RecordBatch, iter_record_batches
from repro.streaming.clock import DAY, HOUR, MINUTE, WEEK, SimulationClock
from repro.streaming.record import OperationalRecord
from repro.streaming.stream import InputStream

__all__ = [
    "OperationalRecord",
    "RecordBatch",
    "iter_record_batches",
    "InputStream",
    "SimulationClock",
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
]
