"""Packaging guards: rules about how ``src/repro`` is put together that no
single module's suite owns."""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# ----------------------------------------------------------------------
# NumPy is a dependency, not an option, outside the tiered packages
# ----------------------------------------------------------------------
TIERED = ("core", "forecasting", "hierarchy", "_vector.py")
OPTIONAL_NUMPY = re.compile(
    r"load_numpy"                                   # asks whether NumPy is there
    r"|\b_?np_? is (?:not )?None"                   # tests a handle against None
    r"|try:[^\n]*\n(?:\s*#[^\n]*\n)*\s+import numpy"  # guards the import
)


def test_numpy_is_unconditional_outside_the_tiered_packages():
    """Only ``core/``, ``forecasting/``, ``hierarchy/`` (and ``_vector.py``,
    which serves them) have a python tier.  Everything else — batches,
    readers, the engine, the service — imports NumPy plainly: no
    ``load_numpy``, no handle compared with ``None``, no guarded import."""
    package = SRC / "repro"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package).parts[0] in TIERED:
            continue
        for match in OPTIONAL_NUMPY.finditer(path.read_text(encoding="utf-8")):
            offenders.append(f"{path.relative_to(SRC)}: {match.group(0).strip()!r}")
    assert offenders == []
