"""Compiled-tier equivalence: every C kernel is bit-identical to NumPy.

Each test runs the same seeded scenario twice through the *public* hooks —
once on the compiled tier, once with ``REPRO_DISABLE_COMPILED=1`` pinning
the NumPy tier — and compares the observable state byte-for-byte.  The
whole module skips when the extension is absent (no compiler, no NumPy):
the NumPy and pure-Python tiers remain canonical and are covered by the
rest of the suite.
"""

from __future__ import annotations

import os
import random
import re
from contextlib import contextmanager
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro import _ckernels
from repro.core.config import ForecastConfig
from repro.forecasting.bank import ForecasterBank

pytestmark = pytest.mark.skipif(
    _ckernels.load() is None, reason="compiled kernel extension unavailable"
)

SRC = Path(__file__).resolve().parents[2] / "src"


@contextmanager
def numpy_tier():
    """Force the NumPy tier for the duration (kernels resolve per call)."""
    os.environ["REPRO_DISABLE_COMPILED"] = "1"
    try:
        yield
    finally:
        del os.environ["REPRO_DISABLE_COMPILED"]


def test_extension_exposes_all_kernels():
    """The method table is exactly the set of ``kernels.<name>(`` call sites
    under ``src/``: a dead kernel cannot linger in the C file, a missing one
    cannot hide behind its NumPy fallback."""
    called = set()
    for path in SRC.rglob("*.py"):
        called.update(re.findall(r"\bkernels\.(\w+)\(", path.read_text(encoding="utf-8")))
    kernels = _ckernels.load()
    exported = {
        name
        for name in dir(kernels)
        if not name.startswith("_") and callable(getattr(kernels, name))
    }
    assert exported == called


# ----------------------------------------------------------------------
# Forecaster bank kernels
# ----------------------------------------------------------------------

SEASON = 12


def canonical_rows(bank, rows):
    return [bank.row_state_dict(row) for row in rows]


@pytest.mark.parametrize("window", [None, 16])  # row stride without / with windows
@pytest.mark.parametrize("seed", range(4))
def test_observe_rows_steady_matches_numpy_tier(seed, window):
    rng = random.Random(seed + 101)
    history = np.array([5.0 + rng.uniform(-1, 1) for _ in range(2 * SEASON)])
    values = [[rng.uniform(0, 12) for _ in range(8)] for _ in range(5)]
    outputs = []
    for compiled in (True, False):
        bank = ForecasterBank(ForecastConfig(season_lengths=(SEASON,)), window=window)
        rows = [bank.new_row() for _ in range(8)]
        forecasts = []
        for row in rows:
            bank.seed_fast(row, history)  # all rows warm => steady branch
        for step_values in values:
            if compiled:
                forecasts.append(bank.observe_rows(rows, step_values))
            else:
                with numpy_tier():
                    forecasts.append(bank.observe_rows(rows, step_values))
        outputs.append((forecasts, canonical_rows(bank, rows)))
    assert outputs[0] == outputs[1]
