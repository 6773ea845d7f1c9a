"""Every example script imports.

Only a few examples run in CI, so an example that imports a name the library
no longer has would otherwise break unnoticed.  Each one is executed as a
module under a run name other than ``"__main__"``: its imports and
module-level definitions run, its main guard keeps ``main()`` from running.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    assert 'if __name__ == "__main__":' in path.read_text(encoding="utf-8")
    namespace = runpy.run_path(str(path), run_name="example_import_check")
    assert callable(namespace["main"])
