"""Packaging guards: rules about how ``src/repro`` is put together that no
single module's suite owns."""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# ----------------------------------------------------------------------
# NumPy is a dependency, not an option
# ----------------------------------------------------------------------
OPTIONAL_NUMPY = re.compile(
    r"load_numpy"                                   # asks whether NumPy is there
    r"|\b_?np_? is (?:not )?None"                   # tests a handle against None
    r"|try:[^\n]*\n(?:\s*#[^\n]*\n)*\s+import numpy"  # guards the import
    r"|REPRO_DISABLE_NUMPY"                         # a switch to run without it
)


def test_numpy_is_unconditional():
    """The detection core has one implementation: every module imports
    NumPy plainly — no ``load_numpy``, no handle compared with ``None``, no
    guarded import, no environment switch.  ``_vector.py`` keeps
    ``load_numpy()`` / ``backend_tier()`` for the perf ledger."""
    package = SRC / "repro"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "_vector.py" and path.parent == package:
            continue
        for match in OPTIONAL_NUMPY.finditer(path.read_text(encoding="utf-8")):
            offenders.append(f"{path.relative_to(SRC)}: {match.group(0).strip()!r}")
    assert offenders == []
