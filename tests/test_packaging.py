"""Packaging guards: rules about how ``src/repro`` is put together that no
single module's suite owns."""

from __future__ import annotations

import ast
import re
from collections import Counter
from collections.abc import Iterator
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
#: Public definitions with no user in ``src/``, ``benchmarks/`` or
#: ``examples/`` that stay, each with the reason it stays.
UNREACHED_ALLOWED = {
    "testing.reference.ReferenceADA": (
        "the differential oracle: the production paths are compared against it"
    ),
    "io.csv_io.write_records_csv": (
        "writes the CSV input format that read_batches_csv reads"
    ),
    "engine.session.DetectionSession.ingest_record": (
        "README-documented API: a record is a batch of one"
    ),
    "engine.engine.DetectionEngine.ingest_record": (
        "README-documented API: a record is a batch of one"
    ),
    "engine.sharded.ShardedDetectionEngine.ingest_record": (
        "README-documented API: a record is a batch of one"
    ),
    "streaming.batch.RecordBatch.from_columns": (
        "README-documented API: a batch from plain columns"
    ),
    "engine.sharded.ShardedDetectionEngine.rebalance_session": (
        "README's migration table points to it for moving subtree shards"
    ),
    "service.daemon.DetectionService.start_in_thread": (
        "the in-process entry the HTTP suites start the daemon through"
    ),
    "service.alerts.WebhookAlertSink.wait_idle": (
        "a synchronisation barrier: blocks until the retry queue drains"
    ),
    "testing.faults.FaultPlan.to_env": (
        "writes the REPRO_FAULT_PLAN format that from_env reads"
    ),
    "testing.faults.FaultPlan.seeded_kill": (
        "the CI fault matrix's reproducible plan"
    ),
}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def name_counts(nodes: list[ast.AST], *, in_init: bool) -> Counter[str]:
    """How often ``nodes`` and everything under them read, call or import
    each name.  In a package ``__init__`` an import is a re-export, not a
    use, and ``__all__`` is a list of strings, so neither names anything; any
    other use there counts."""
    counts: Counter[str] = Counter()
    for node in (inner for outer in nodes for inner in ast.walk(outer)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias) and not in_init:
            counts[node.name.rpartition(".")[2]] += 1
    return counts


def public_definitions(tree: ast.Module) -> Iterator[tuple[str, str, list[ast.AST]]]:
    """``(qualified name, name, its own nodes)`` for each public top-level
    ``def`` / ``class``, each public method or property of a public
    top-level class (a property's getter and setter are one) and each public
    module-level assignment target.  Dunders are not public here."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield node.name, node.name, [node]
            if isinstance(node, ast.ClassDef):
                methods: dict[str, list[ast.AST]] = {}
                for member in node.body:
                    if isinstance(member, DEFINITIONS[:2]) and not member.name.startswith("_"):
                        methods.setdefault(member.name, []).append(member)
                for name, members in methods.items():
                    yield f"{node.name}.{name}", name, members
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in (inner for outer in targets for inner in ast.walk(outer)):
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, target.id, [node]


def parse_all(root: Path) -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    }


def unreached_definitions(package: Path, users: tuple[Path, ...] = ()) -> set[str]:
    """The public definitions of the modules under ``package`` (see
    ``public_definitions``; as ``module.name`` relative to it) that no other
    module of the package and no file under ``users`` names, and that no
    statement of their own module names outside their own body — so a
    method a sibling calls through ``self.`` is used."""
    trees = parse_all(package)
    used_by = {
        path: name_counts(tree.body, in_init=path.name == "__init__.py")
        for path, tree in trees.items()
    }
    outside = set().union(
        *(
            name_counts(tree.body, in_init=False)
            for root in users
            for tree in parse_all(root).values()
        )
    )
    found: set[str] = set()
    for path, tree in trees.items():
        elsewhere = outside.union(*(used for other, used in used_by.items() if other != path))
        in_init = path.name == "__init__.py"
        for qualified, name, own in public_definitions(tree):
            if name in elsewhere:
                continue
            if used_by[path][name] > name_counts(own, in_init=in_init)[name]:
                continue
            module = module_name(path, package)
            found.add(f"{module}.{qualified}" if module else qualified)
    return found


def orphaned_private_definitions(package: Path) -> set[str]:
    """The private ``def`` / method / ``class`` definitions anywhere under
    ``package`` (as ``module:line name``) that no statement of the package
    names outside their own body."""
    trees = parse_all(package)
    used: Counter[str] = Counter()
    for path, tree in trees.items():
        used.update(name_counts(tree.body, in_init=path.name == "__init__.py"))
    found: set[str] = set()
    for path, tree in trees.items():
        in_init = path.name == "__init__.py"
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS) or not is_private(node.name):
                continue
            if used[node.name] > name_counts([node], in_init=in_init)[node.name]:
                continue
            found.add(f"{module_name(path, package)}:{node.lineno} {node.name}")
    return found


def test_every_public_definition_has_a_user_outside_the_tests():
    """A public top-level ``def`` or ``class``, a public method or property
    of a public class and a public module constant in ``src/repro`` are
    named by another module, by ``benchmarks/`` or by ``examples/``, or used
    elsewhere in their own module; what only its own tests reach is deleted
    with them.  A re-export from an ``__init__`` is not a use.  The
    allowlist names the exceptions and why each stays, and holds no entry
    that has a user."""
    unreached = unreached_definitions(
        PACKAGE, (SRC.parent / "benchmarks", SRC.parent / "examples")
    )
    assert sorted(unreached - UNREACHED_ALLOWED.keys()) == []
    assert sorted(UNREACHED_ALLOWED.keys() - unreached) == []


def test_no_private_definition_is_orphaned():
    """A private ``def``, method or ``class`` is named somewhere in the
    package outside its own body: a helper whose last caller was deleted
    goes with it."""
    assert sorted(orphaned_private_definitions(PACKAGE)) == []


def test_the_unreached_scan_sees_through_re_exports(tmp_path):
    """The scan reports a definition nothing names and one that only an
    ``__init__`` re-exports, and credits one an ``__init__`` dict holds; it
    reports an uncalled method and an unused constant (a definition's use of
    itself does not count), credits a method another module calls and one a
    sibling calls through ``self.``, and skips dunders and private methods.
    The orphan scan reports the private helpers nothing else calls."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from pkg.impl import exported, registered\n"
        'REGISTRY = {"x": registered}\n'
        '__all__ = ["exported", "registered", "REGISTRY"]\n',
        encoding="utf-8",
    )
    (package / "impl.py").write_text(
        "LIMIT = 3\n"
        "SIZE = 2\n\n\n"
        "def unused():\n    pass\n\n\n"
        "def exported():\n    return _helper()\n\n\n"
        "def registered():\n    pass\n\n\n"
        "def _helper():\n    pass\n\n\n"
        "def _orphan():\n    return _orphan()\n\n\n"
        "class Widget:\n"
        "    def __init__(self):\n        self.size = SIZE\n\n"
        "    def called(self):\n        return self.sibling()\n\n"
        "    def sibling(self):\n        return 1\n\n"
        "    def uncalled(self):\n        return self.uncalled()\n\n"
        "    def _lonely(self):\n        return 0\n",
        encoding="utf-8",
    )
    (package / "user.py").write_text(
        "from pkg import REGISTRY\n"
        "from pkg.impl import Widget\n\n"
        "Widget().called()\n"
        "REGISTRY.clear()\n",
        encoding="utf-8",
    )
    assert unreached_definitions(package) == {
        "impl.unused",
        "impl.exported",
        "impl.Widget.uncalled",
        "impl.LIMIT",
    }
    assert orphaned_private_definitions(package) == {"impl:21 _orphan", "impl:38 _lonely"}
