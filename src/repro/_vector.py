"""Backend tiers of the detection core.

Three tiers, each a bit-identical implementation of the same arithmetic; the
tier alone selects the execution path (ADA: vector close on 1-2):

1. **compiled** — the optional C extension (``repro._ckernels``), built on
   demand with ``python -m repro._ckernels build``;
2. **numpy** — the vectorized kernels;
3. **python** — the pure-Python implementations: the oracle the other two
   are tested against.

The tiers exist in ``repro.core``, ``repro.forecasting`` and
``repro.hierarchy`` only — the forecaster bank, the hierarchy weight index,
ADA/STA, the batch detector.  Those modules obtain their NumPy handle through
:func:`load_numpy` (and the split-statistics update additionally probes
:func:`load_kernels`), so that

* the ``REPRO_DISABLE_NUMPY`` environment variable, set at process start
  (the handles bind at import), runs the detection core on the python tier —
  the CI golden-trace job uses it to prove detections are identical on the
  vector tiers and the oracle — and
* ``REPRO_DISABLE_COMPILED`` pins a build with the extension present to the
  NumPy tier (the equivalence suites compare the two in one process).

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

#: Environment variable that skips the compiled tier even when built (the
#: actual gate lives in :mod:`repro._ckernels`; re-exported for discovery).
DISABLE_COMPILED_ENV = "REPRO_DISABLE_COMPILED"


def load_numpy():
    """The ``numpy`` module, or ``None`` on the python tier
    (``REPRO_DISABLE_NUMPY``)."""
    return None if os.environ.get(DISABLE_ENV) else numpy


# Kernel pin stack: a close-path entry point resolves the tier once and pins
# it for the duration of the close, so the dozens of nested load_kernels()
# probes (window splits, merges, row seeds) skip the per-call environment
# read.  Entries may be None (tier disabled) — an empty stack means unpinned.
_PINNED: list = []


def load_kernels():
    """The compiled kernel module, or ``None``.

    The compiled tier rides on top of the NumPy tier (its kernels operate on
    the same dense arrays), so disabling NumPy disables it too.  Inside a
    :class:`pinned_kernels` region the pinned resolution is returned without
    re-reading the environment.
    """
    if _PINNED:
        return _PINNED[-1]
    if load_numpy() is None:
        return None
    from repro import _ckernels

    return _ckernels.load()


class pinned_kernels:
    """Context manager pinning the kernel-tier resolution for a hot region.

    Re-entrant and exception-safe; the pinned value is resolved on entry
    (one environment read) and handed to every nested :func:`load_kernels`
    call.  Used by ADA around each timeunit close.
    """

    __slots__ = ("kernels",)

    def __enter__(self):
        kernels = load_kernels()
        _PINNED.append(kernels)
        return kernels

    def __exit__(self, *exc):
        _PINNED.pop()
        return False


def backend_tier() -> str:
    """The active backend tier name: ``compiled``, ``numpy`` or ``python``.

    Recorded by the perf ledger so throughput trajectories state which
    stack produced them.
    """
    if load_numpy() is None:
        return "python"
    return "numpy" if load_kernels() is None else "compiled"
