"""The NumPy handle and backend name the perf ledger records, and the one
float sum that feeds detection state and traces.

The detection core has one implementation, on NumPy, which the package
depends on.  The pure-Python oracle it is tested against lives in
:mod:`repro.testing.reference` and never runs in production.
"""

from __future__ import annotations

import numpy


def load_numpy():
    """The ``numpy`` module."""
    return numpy


def backend_tier() -> str:
    """The backend name ledger entries and ``/metrics`` record: ``numpy``."""
    return "numpy"


def left_sum(values) -> float:
    """``values`` added one by one from the left, starting at ``0.0``.

    Builtin ``sum()`` of floats is a plain left fold up to CPython 3.11 and
    compensated (Neumaier) from 3.12 on, so the two can differ in the last
    bit.  Every sum that feeds detection state or a trace goes through this
    loop instead, so it has one answer on every CPython.
    """
    total = 0.0
    for value in values:
        total += value
    return total
