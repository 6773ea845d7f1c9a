"""Optional compiled kernels: the third backend tier.

The pure-Python and NumPy implementations remain the canonical reference;
this package holds a small C extension (``_impl``) with a bit-identical
transcription of the one close-path kernel that earns its keep
(``update_stats_dense``).  It is **not** built on install —
environments that want it run::

    python -m repro._ckernels build

which compiles ``_implmodule.c`` with the system C compiler straight into
this package directory (no pip, no network).  Absence is never an error:
:func:`load` returns ``None`` and every caller falls back to the NumPy tier.

The bit-identity contract (and why ``-ffp-contract=off`` is mandatory) is
documented at the top of ``_implmodule.c`` and enforced by the equivalence
suite in ``tests/core/test_ckernels.py`` plus the golden traces.
"""

from __future__ import annotations

import os

#: Setting this to a non-empty value skips the compiled tier even when the
#: extension has been built (the NumPy tier then serves every kernel).
DISABLE_ENV = "REPRO_DISABLE_COMPILED"

_CACHE: list = []  # [module_or_None] once resolved; env is re-read per call.


def load():
    """The compiled kernel module, or ``None`` when absent or disabled.

    The import result is cached (an extension cannot be unloaded anyway) but
    the ``REPRO_DISABLE_COMPILED`` switch is honored on every call, so tests
    can flip tiers per-session without reloading the package.
    """
    if os.environ.get(DISABLE_ENV):
        return None
    if not _CACHE:
        try:
            from repro._ckernels import _impl
        except ImportError:
            _CACHE.append(None)
        else:
            _CACHE.append(_impl)
    return _CACHE[0]


def build(verbose: bool = True) -> str:
    """Compile the extension in place; returns the built path (see build.py)."""
    from repro._ckernels.build import build_extension

    return build_extension(verbose=verbose)
