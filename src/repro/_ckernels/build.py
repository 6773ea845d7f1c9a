"""In-place builder for the compiled kernel extension.

Deliberately *not* a setuptools ``Extension``: offline environments (and the
CI compiled-tier leg) build the module with one direct compiler invocation::

    python -m repro._ckernels build

Flags are minimal and floating-point-strict: ``-O2 -ffp-contract=off``.  No
``-ffast-math``, no FMA contraction — the kernels' bit-identity contract with
the NumPy tier depends on plain IEEE-754 double arithmetic per element.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy

PACKAGE_DIR = Path(__file__).resolve().parent
SOURCE = PACKAGE_DIR / "_implmodule.c"


class BuildError(RuntimeError):
    """The extension could not be built (no compiler, a compile error...)."""


def extension_path() -> Path:
    """Where the built module lands (``_impl`` + platform EXT_SUFFIX)."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return PACKAGE_DIR / f"_impl{suffix}"


def build_extension(verbose: bool = True) -> str:
    """Compile ``_implmodule.c`` into this package; returns the .so path."""
    compiler = (
        sysconfig.get_config_var("CC") or "cc"
    ).split()[0]
    if shutil.which(compiler) is None:
        compiler = next(
            (c for c in ("cc", "gcc", "clang") if shutil.which(c)), None
        )
        if compiler is None:
            raise BuildError("no C compiler found on PATH")
    target = extension_path()
    command = [
        compiler,
        "-O2",
        "-ffp-contract=off",
        "-fPIC",
        "-shared",
        f"-I{sysconfig.get_paths()['include']}",
        f"-I{numpy.get_include()}",
        str(SOURCE),
        "-o",
        str(target),
    ]
    if verbose:
        print(" ".join(command))
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BuildError(
            f"compiler exited with {proc.returncode}:\n{proc.stderr}"
        )
    if verbose:
        print(f"built {target}")
    return str(target)


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] in ([], ["build"]):
        try:
            build_extension()
        except BuildError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    if argv[:1] == ["clean"]:
        target = extension_path()
        if target.exists():
            target.unlink()
            print(f"removed {target}")
        return 0
    print("usage: python -m repro._ckernels [build|clean]", file=sys.stderr)
    return 2
