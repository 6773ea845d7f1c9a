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


# ----------------------------------------------------------------------
# orjson is a dependency of one module
# ----------------------------------------------------------------------
ORJSON_IMPORT = re.compile(r"^([ \t]*)(?:import orjson\b|from orjson\b)", re.MULTILINE)


def test_orjson_is_imported_plainly_by_the_ndjson_decoder_only():
    """``orjson`` parses NDJSON lines in ``io/jsonl_io.py`` and nowhere else,
    and it is imported once, unindented — so never under ``try:`` — with no
    fallback when it is missing.  ``setup.py`` declares it."""
    importers = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        indents = [match.group(1) for match in ORJSON_IMPORT.finditer(text)]
        if indents:
            importers[str(path.relative_to(SRC))] = indents
    assert importers == {"repro/io/jsonl_io.py": [""]}
    assert "ImportError" not in (SRC / "repro" / "io" / "jsonl_io.py").read_text(
        encoding="utf-8"
    )
    setup = (SRC.parent / "setup.py").read_text(encoding="utf-8")
    assert re.search(r"install_requires=\[[^\]]*\"orjson\"", setup)
