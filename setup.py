"""Setuptools entry point.

Kept as an executable ``setup.py`` (rather than pyproject-only metadata) so
that editable installs work in offline environments whose setuptools
predates PEP 660 wheel-less editable support.  The version is read from
``src/repro/__init__.py`` — the single source of truth.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro-tiresias",
    version=VERSION,
    description=(
        "Reproduction of Tiresias (Hong et al., ICDCS 2012): online anomaly "
        "detection over hierarchical operational data, with a multi-tenant "
        "detection daemon"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "orjson"],
    entry_points={
        "console_scripts": [
            "repro-serve = repro.service.daemon:main",
        ],
    },
)
