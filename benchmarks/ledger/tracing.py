"""Spans and summary statistics shared by the ledger's drivers.

Spans are recorded from the benchmark's own files, around calls into the
library's public functions; nothing under ``src/`` is instrumented.  They are
kept in memory and dumped when the run ends.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from contextlib import contextmanager

try:  # the probe's NumPy half only exists on the NumPy tier
    import numpy as _np
except ImportError:  # pragma: no cover - the image ships NumPy
    _np = None


class Tracer:
    """In-memory span recorder: ``name, start, end, parent, pass``."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.current_pass = 0

    def add(self, name: str, start: float, end: float, parent: "int | None" = None) -> int:
        """Record a finished span; ``parent`` defaults to the open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "workload": self.workload,
                "pass": self.current_pass,
            }
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        span_id = self.add(name, time.perf_counter(), math.nan)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.spans[span_id]["end"] = time.perf_counter()

    def self_seconds(self, pass_index: "int | None" = None) -> dict[str, float]:
        """Per span name: duration minus the part covered by child spans."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = (
                    covered.get(span["parent"], 0.0) + span["end"] - span["start"]
                )
        totals: dict[str, float] = {}
        for span in self.spans:
            if pass_index is not None and span["pass"] != pass_index:
                continue
            own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals


def quartiles(values: "list[float]") -> tuple[float, float, float]:
    """``(q1, median, q3)`` the way the driver computes them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def percentile(values: "list[float]", p: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summary(values: "list[float]") -> dict:
    """Median + quartiles + sample count, as the ledger reports every timing."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


#: Seconds the probe kernel takes on the reference machine: the 2-core
#: 2.1 GHz Xeon VM the baseline was recorded on, when nothing else runs.
PROBE_REFERENCE_S = 0.00070


def _probe_kernel() -> None:
    """A fixed slice of the library's instruction mix: dictionary updates in
    the interpreter and a few NumPy passes over a small array."""
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    if _np is not None:
        column = _np.arange(20000, dtype=_np.float64)
        for _ in range(6):
            column = column * 1.0000001 + 1.0


def machine_slowdown(repeats: int = 5, cpu: "int | None" = None) -> float:
    """How many times slower than the reference machine this CPU runs now.

    The box the ledger runs on is a shared VM whose speed changes by a factor
    of 1.5-1.9 for minutes at a time (both cores, CPU time and wall time
    alike), which no amount of repetition inside a 10-second run averages
    out.  The drivers therefore probe the machine right before and after
    every timed region and divide the region's wall time by the factor
    measured here, so a timing means "at reference speed" whenever it was
    taken.  The raw wall times are kept beside the scaled ones.

    The slow spells hit one core at a time.  When the program under test is
    another process, the driver pins it to a CPU of its own and passes that
    ``cpu`` here: the probe then runs there (while the program is idle), not
    on the driver's CPU.
    """
    mine = os.sched_getaffinity(0) if cpu is not None else None
    if mine is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            _probe_kernel()
            samples.append(time.perf_counter() - started)
    finally:
        if mine is not None:
            os.sched_setaffinity(0, mine)
    return statistics.median(samples) / PROBE_REFERENCE_S


class Scaled:
    """Times a region and scales it to reference speed::

        with Scaled() as region: ...
        region.seconds, region.raw_seconds, region.slowdown
    """

    def __init__(self, cpu: "int | None" = None):
        self.cpu = cpu

    def __enter__(self) -> "Scaled":
        self._before = machine_slowdown(cpu=self.cpu)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.raw_seconds = time.perf_counter() - self._started
        self.slowdown = (self._before + machine_slowdown(cpu=self.cpu)) / 2.0
        self.seconds = self.raw_seconds / self.slowdown


class DueTimes:
    """When each timeunit's result became *due*.

    A timeunit closes when the first record of a later timeunit is handed to
    the system, so its result is due from the moment that input was handed
    over (replay: the ingest call; closed loop: the POST; open loop: the
    chunk's scheduled send time).  Alert delay is measured from here.
    """

    def __init__(self, delta: float):
        self.delta = delta
        self.due: dict[int, float] = {}
        self._open: "int | None" = None

    def handed(self, first_ts: float, last_ts: float, when: float) -> None:
        last = int(last_ts // self.delta)
        if self._open is None:
            self._open = int(first_ts // self.delta)
        for unit in range(self._open, last):
            self.due[unit] = when
        self._open = max(self._open, last)

    def flushed(self, when: float) -> None:
        if self._open is not None:
            self.due[self._open] = when
