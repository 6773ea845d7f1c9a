"""Packaging guards: rules about how ``src/repro`` is put together that no
single module's suite owns."""

from __future__ import annotations

import ast
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


# ----------------------------------------------------------------------
# The import graph
# ----------------------------------------------------------------------
PACKAGE = SRC / "repro"
#: Private modules of the package: their names are underscored, what they
#: hold is meant for every other module.
PRIVATE_MODULES = frozenset({"repro._types", "repro._vector"})


def module_name(path: Path, root: Path = SRC) -> str:
    parts = path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(path): path for path in sorted(PACKAGE.rglob("*.py"))}


def is_type_checking_block(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
    )


def runtime_imports(name: str) -> list[tuple[str, list[str]]]:
    """``(module, imported names)`` for every import statement of module
    ``name`` that runs — top level or inside a function, not under
    ``if TYPE_CHECKING:`` — with relative imports resolved."""
    tree = ast.parse(MODULES[name].read_text(encoding="utf-8"))
    package = name if MODULES[name].name == "__init__.py" else name.rpartition(".")[0]
    found: list[tuple[str, list[str]]] = []

    def visit(node: ast.AST) -> None:
        if is_type_checking_block(node):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            found.extend((alias.name, []) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found.append((base, [alias.name for alias in node.names]))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def import_graph() -> dict[str, set[str]]:
    """Module -> the ``repro`` modules it imports by name.  ``from pkg
    import mod`` counts as importing ``pkg.mod``; a package a dotted name
    passes through is not counted (every module would import ``repro``)."""
    graph: dict[str, set[str]] = {name: set() for name in MODULES}
    for name in MODULES:
        for module, names in runtime_imports(name):
            if module not in MODULES:
                continue
            submodules = {f"{module}.{n}" for n in names} & MODULES.keys()
            if len(submodules) < len(names) or not names:
                graph[name].add(module)
            graph[name] |= submodules
        graph[name].discard(name)
    return graph


def cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """The strongly connected components with more than one module
    (Tarjan's algorithm)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    found: list[list[str]] = []

    def connect(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        for successor in sorted(graph[node]):
            if successor not in index:
                connect(successor)
                low[node] = min(low[node], low[successor])
            elif successor in on_stack:
                low[node] = min(low[node], index[successor])
        if low[node] == index[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                found.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            connect(node)
    return found


def test_the_import_graph_has_no_cycle():
    """No two modules of ``src/repro`` import each other, directly or round
    a loop, counting imports inside functions: a function-level import is
    not a way to hold a cycle apart.  Imports under ``if TYPE_CHECKING:``
    never run and do not count."""
    assert cycles(import_graph()) == []


def test_no_module_imports_another_modules_private_names():
    """An underscored name is its module's own; what another module needs
    is public where it is defined.  ``repro._types`` and ``repro._vector``
    are private to the package, not to a module."""
    offenders = [
        f"{name}: from {module} import {imported}"
        for name in MODULES
        for module, names in runtime_imports(name)
        if module.startswith("repro") and module not in PRIVATE_MODULES
        for imported in names
        if imported.startswith("_") and f"{module}.{imported}" not in PRIVATE_MODULES
    ]
    assert offenders == []


def test_checkpoint_io_imports_nothing_from_the_engine():
    """``repro.io.checkpoint`` owns the file format — codecs, header, durable
    writes, retention — and the classes that serialize themselves call it,
    never the other way round."""
    engine_imports = [
        module
        for module, _ in runtime_imports("repro.io.checkpoint")
        if module == "repro.engine" or module.startswith("repro.engine.")
    ]
    assert engine_imports == []


# ----------------------------------------------------------------------
# Private attributes stay with the module that binds them
# ----------------------------------------------------------------------
#: ``(expression, attribute)`` reach-ins the rule allows: the standard
#: library's own underscored API.
ALLOWED_REACH_INS = frozenset({("os", "_exit")})


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def bound_names(tree: ast.AST) -> set[str]:
    """Every name a module binds: definitions, parameters, assignment and
    import targets, and attributes it stores to (``x._name = ...``)."""
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.attr)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
    return bound


def test_no_module_reads_another_modules_private_attributes():
    """``expr._name`` reads a private attribute another module owns unless
    ``expr`` is ``self`` / ``cls`` or the module binds ``_name`` itself
    (dunders are public protocol).  What a caller needs from another module's
    object is public there; ``os._exit`` is the one allowed reach-in."""
    offenders = []
    for name, path in MODULES.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = bound_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or not is_private(node.attr):
                continue
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if owner in ("self", "cls") or node.attr in bound:
                continue
            if (owner, node.attr) in ALLOWED_REACH_INS:
                continue
            offenders.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert offenders == []


# ----------------------------------------------------------------------
# Every public definition has a user outside the tests
# ----------------------------------------------------------------------
#: Public top-level definitions with no user in ``src/``, ``benchmarks/`` or
#: ``examples/`` that stay, each with the reason it stays.
UNREACHED_ALLOWED = {
    "testing.reference.ReferenceADA": (
        "the differential oracle: the production paths are compared against it"
    ),
    "io.csv_io.write_records_csv": (
        "writes the CSV input format that read_batches_csv reads"
    ),
}


def names_used(statements: list[ast.stmt], *, in_init: bool) -> set[str]:
    """Every name ``statements`` read, call or import.  In a package
    ``__init__`` an import is a re-export, not a use, and ``__all__`` is a
    list of strings, so neither names anything; any other use there counts."""
    used: set[str] = set()
    for node in (node for statement in statements for node in ast.walk(statement)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias) and not in_init:
            used.add(node.name.rpartition(".")[2])
    return used


def unreached_definitions(package: Path, users: tuple[Path, ...] = ()) -> set[str]:
    """The public top-level ``def`` / ``class`` names of the modules under
    ``package`` (as ``module.name``, relative to it) that no other module of
    the package and no file under ``users`` names, and that no other
    definition or statement of their own module uses."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }
    used_by = {
        path: names_used(tree.body, in_init=path.name == "__init__.py")
        for path, tree in trees.items()
    }
    outside = set().union(
        *(
            names_used(ast.parse(path.read_text(encoding="utf-8")).body, in_init=False)
            for root in users
            for path in sorted(root.rglob("*.py"))
        )
    )
    found: set[str] = set()
    for path, tree in trees.items():
        elsewhere = outside.union(*(used for other, used in used_by.items() if other != path))
        in_init = path.name == "__init__.py"
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in elsewhere:
                continue
            rest = [statement for statement in tree.body if statement is not node]
            if node.name in names_used(rest, in_init=in_init):
                continue
            module = module_name(path, package)
            found.add(f"{module}.{node.name}" if module else node.name)
    return found


def test_every_public_definition_has_a_user_outside_the_tests():
    """A public top-level ``def`` or ``class`` in ``src/repro`` is named by
    another module, by ``benchmarks/`` or by ``examples/``, or used by
    another definition of its own module; what only its own tests reach is
    deleted with them.  A re-export from an ``__init__`` is not a use.  The
    allowlist names the exceptions and why each stays, and holds no entry
    that has a user."""
    unreached = unreached_definitions(
        PACKAGE, (SRC.parent / "benchmarks", SRC.parent / "examples")
    )
    assert sorted(unreached - UNREACHED_ALLOWED.keys()) == []
    assert sorted(UNREACHED_ALLOWED.keys() - unreached) == []


def test_the_unreached_scan_sees_through_re_exports(tmp_path):
    """The scan reports a definition nothing names and one that only an
    ``__init__`` re-exports, and credits one an ``__init__`` dict holds."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from pkg.impl import exported, registered\n"
        'REGISTRY = {"x": registered}\n'
        '__all__ = ["exported", "registered", "REGISTRY"]\n',
        encoding="utf-8",
    )
    (package / "impl.py").write_text(
        "def unused():\n    pass\n\n\n"
        "def exported():\n    pass\n\n\n"
        "def registered():\n    pass\n",
        encoding="utf-8",
    )
    assert unreached_definitions(package) == {"impl.unused", "impl.exported"}
