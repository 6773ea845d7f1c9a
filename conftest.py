"""Pytest bootstrap: make ``src/`` importable without an installed package.

The library is normally installed with ``pip install -e .`` (or
``python setup.py develop`` in offline environments without the ``wheel``
package).  Adding ``src/`` to ``sys.path`` here lets the test and benchmark
suites run straight from a source checkout as well.

A ``RuntimeWarning`` issued from a ``repro`` module (a NumPy cast of a NaN,
an overflow in a kernel) fails the test that triggered it: the library
refuses bad values where they enter, so such a warning is a bug.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning:repro")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help=(
            "rewrite the expected-output files under tests/golden/ from the "
            "current engine output instead of diffing against them"
        ),
    )
