"""Shared backend loading for the vectorized and compiled kernels.

Three backend tiers, each a bit-identical implementation of the same
arithmetic; the tier alone selects the execution path (ADA: vector close on 1-2):

1. **compiled** — the optional C extension (``repro._ckernels``), built on
   demand with ``python -m repro._ckernels build``;
2. **numpy** — the vectorized kernels, active whenever NumPy imports;
3. **python** — the pure-Python fallbacks, always available.

Every module with a vectorized fast path (columnar batches, the forecaster
bank, the hierarchy weight index, the batch detector) obtains its NumPy
handle through :func:`load_numpy`, and the close-path hot spots additionally
probe :func:`load_kernels` for the compiled tier, so that

* minimal installs without NumPy transparently fall back to the pure-Python
  implementations,
* the ``REPRO_DISABLE_NUMPY`` environment variable, set at process start
  (the handles bind at import), can force the fallback paths in a normal
  environment — the CI golden-trace job uses it to prove detections are
  identical with and without the vector backend — and
* ``REPRO_DISABLE_COMPILED`` pins a build with the extension present to the
  NumPy tier (the equivalence suites compare the two in one process).
"""

from __future__ import annotations

import os

#: Environment variable that forces the pure-Python fallbacks when set to a
#: non-empty value, even when NumPy is importable.
DISABLE_ENV = "REPRO_DISABLE_NUMPY"

#: Environment variable that skips the compiled tier even when built (the
#: actual gate lives in :mod:`repro._ckernels`; re-exported for discovery).
DISABLE_COMPILED_ENV = "REPRO_DISABLE_COMPILED"


def load_numpy():
    """The ``numpy`` module, or ``None`` when absent or explicitly disabled."""
    if os.environ.get(DISABLE_ENV):
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - minimal installs
        return None
    return numpy


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
