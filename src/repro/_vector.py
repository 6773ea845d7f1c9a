"""The NumPy handle and backend name the perf ledger records.

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
