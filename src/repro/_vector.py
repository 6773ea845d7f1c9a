"""Backend tiers of the detection core.

Two tiers, each a bit-identical implementation of the same arithmetic; the
tier alone selects the execution path (ADA: vector close on the first):

1. **numpy** — the vectorized kernels;
2. **python** — the pure-Python implementations: the oracle the vector tier
   is tested against.

The tiers exist in ``repro.core``, ``repro.forecasting`` and
``repro.hierarchy`` only — the forecaster bank, the hierarchy weight index,
ADA/STA, the batch detector.  Those modules obtain their NumPy handle through
:func:`load_numpy` once, at import, so the ``REPRO_DISABLE_NUMPY``
environment variable, set at process start, runs the detection core on the
python tier — the CI golden-trace job uses it to prove detections are
identical on the vector tier and the oracle.  Nothing reads the environment
after that: a timeunit close never resolves a tier.

NumPy itself is a dependency of the package: record batches, trace readers,
the engine and the service import it directly and hold NumPy columns
whatever tier the core runs on.
"""

from __future__ import annotations

import os

import numpy

#: Environment variable that puts the detection core on the python tier when
#: set to a non-empty value.
DISABLE_ENV = "REPRO_DISABLE_NUMPY"


def load_numpy():
    """The ``numpy`` module, or ``None`` on the python tier
    (``REPRO_DISABLE_NUMPY``)."""
    return None if os.environ.get(DISABLE_ENV) else numpy


def backend_tier() -> str:
    """The active backend tier name: ``numpy`` or ``python``.

    Recorded by the perf ledger so throughput trajectories state which
    stack produced them.
    """
    return "python" if load_numpy() is None else "numpy"
