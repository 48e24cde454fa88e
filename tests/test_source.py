"""Source-level rules for the package itself."""

import ast
import importlib
from pathlib import Path

import opquery
from opquery import Oracle

SOURCES = sorted(Path(opquery.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def test_no_assert_statements_in_package():
    # contract checks must raise real exceptions; asserts vanish under python -O
    assert {p.name for p in SOURCES} >= {"algebra.py", "cli.py", "oracle.py", "recovery.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; an attribute chain reads its root name."""
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_unused_import_check_sees_unread_names():
    assert _unused_imports("from __future__ import annotations\nimport os.path\nfrom typing import Any, Sequence\nx: Any = os.sep") == [
        "Sequence (line 3)"
    ]


def test_no_unused_imports_in_package():
    # __init__ imports the public names without reading them
    found = [f"{path.name}: {name}" for path in SOURCES if path.name != "__init__.py" for name in _unused_imports(path.read_text())]
    assert found == []


def _unbounded_caches(source: str) -> list[str]:
    """functools caches in a module without an integer bound: ``@cache``, a bare
    ``@lru_cache`` (its default bound is easy to miss) and ``maxsize=None``."""
    tree = ast.parse(source)
    names = {a.asname or a.name: a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module == "functools" for a in n.names}
    modules = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names if a.name == "functools"}
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            kind = names.get(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            kind = node.attr
        else:
            continue
        if kind not in ("cache", "lru_cache"):
            continue
        call = calls.get(id(node))
        bound = None
        if kind == "lru_cache" and call is not None:
            bound = call.args[0] if call.args else next((kw.value for kw in call.keywords if kw.arg == "maxsize"), None)
        if not (isinstance(bound, ast.Constant) and type(bound.value) is int):
            found.append(f"{kind} (line {node.lineno})")
    return found


def test_unbounded_cache_check_sees_every_form():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache as lc\n"
        "@cache\ndef a(): pass\n"
        "@lc\ndef b(): pass\n"
        "@lc(maxsize=None)\ndef c(): pass\n"
        "@functools.lru_cache(None)\ndef d(): pass\n"
        "@lc(64)\ndef e(): pass\n"
        "@functools.lru_cache(maxsize=8)\ndef f(): pass\n"
        "g = functools.cache(len)\n"
        "h = lc(maxsize=4)(len)\n"
    )
    assert _unbounded_caches(source) == ["cache (line 3)", "lru_cache (line 5)", "lru_cache (line 7)", "lru_cache (line 9)", "cache (line 15)"]


def test_every_cache_in_package_is_bounded():
    # a cache keyed by tables, states or shapes must not grow with the run
    found = [f"{path.name}: {entry}" for path in SOURCES for entry in _unbounded_caches(path.read_text())]
    assert found == []


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (``_x``) of a package that nothing reads.

    ``sources`` maps module names to source text. A name counts as read in
    its own module when a top-level statement other than its definition
    loads it, and from another module through ``from .module import _x`` or
    ``module._x``.
    """
    defined: list[tuple[str, str, ast.stmt]] = []
    local: list[tuple[str, ast.stmt, set[str]]] = []
    imported: set[tuple[str, str]] = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            nodes = list(ast.walk(stmt))
            local.append((module, stmt, {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}))
            imported |= {(n.module, a.name) for n in nodes if isinstance(n, ast.ImportFrom) and n.level == 1 for a in n.names}
            imported |= {(n.value.id, n.attr) for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            else:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            defined += [(module, name, stmt) for name in names if name.startswith("_") and not name.startswith("__")]
    return [
        f"{module}: {name}"
        for module, name, own in defined
        if (module, name) not in imported and not any(m == module and s is not own and name in loads for m, s, loads in local)
    ]


def test_unread_private_name_check_sees_dead_helpers():
    sources = {
        "a": "def _used():\n    return 1\ndef _dead(k):\n    return _dead(k - 1)\n_LIMIT: int = 3\n_SHARED = 4\n_IMPORTED = 5\nx = _used()\n",
        "b": "from . import a\nfrom .a import _IMPORTED\n_SHARED = 6\ny = a._LIMIT + _SHARED + _IMPORTED\n",
    }
    # b reads its own _SHARED, not a's
    assert _unread_private_names(sources) == ["a: _dead", "a: _SHARED"]


def test_no_unread_private_names_in_package():
    # a private helper that nothing reads is dead code
    assert _unread_private_names({path.stem: path.read_text() for path in SOURCES}) == []


def _opquery_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every opquery name a script reads: ``oq.<name>`` and ``from opquery... import <name>``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name, a.name) for a in node.names if a.name.split(".")[0] == "opquery")
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "opquery":
            names.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add((aliases[node.value.id], node.attr))
    return names


def test_names_used_by_bench_and_demos_resolve():
    # the package's import block is its only list of public names; the
    # benchmark and the demos must keep finding what they use there
    scripts = sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py"))
    used = {(path.relative_to(ROOT).as_posix(), module, name) for path in scripts for module, name in _opquery_names(path)}
    assert {name for _, module, name in used if module == "opquery"} >= {"query_budget", "recover_abelian_prime", "Oracle"}
    missing = [entry for entry in sorted(used) if not hasattr(importlib.import_module(entry[1]), entry[2])]
    assert missing == []


def _all_scripts() -> list[Path]:
    """The package, its tests, the benchmark and the demos."""
    return SOURCES + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py"))


TRUSTED = "_trusted"  # algebra's constructor that skips a table's checks


def _trusted_references(source: str) -> list[str]:
    """'Class.function' around every read or import of ``_trusted`` in a module."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        if (
            (isinstance(node, ast.Name) and node.id == TRUSTED)
            or (isinstance(node, ast.Attribute) and node.attr == TRUSTED)
            or (isinstance(node, ast.alias) and TRUSTED in (node.name, node.asname))
        ):
            found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_trusted_reference_check_sees_every_use():
    source = "from a import _trusted as t\nclass A:\n    def f(self):\n        return m._trusted(1)\nx = _trusted\n"
    assert _trusted_references(source) == ["<module>", "A.f", "<module>"]


def test_only_relabel_skips_table_validation():
    # recovery outputs and file input must always run the table checks
    found = [f"{path.name}:{scope}" for path in _all_scripts() for scope in _trusted_references(path.read_text())]
    assert sorted(found) == ["algebra.py:OpTable.relabel", "algebra.py:RingTables.relabel"]


def _oracle_internal_reads(source: str) -> list[str]:
    """Every attribute a module reads whose name is one of ``Oracle.__slots__``."""
    private = set(Oracle.__slots__)
    return [f"{node.attr} (line {node.lineno})" for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute) and node.attr in private]


def test_oracle_internal_read_check_sees_attribute_reads():
    source = "def peek(oracle, _entry):\n    return oracle._entry[0, 0], _entry, oracle.query(0, 0)\n"
    assert _oracle_internal_reads(source) == ["_entry (line 2)"]


def test_only_the_oracle_module_reads_oracle_internals():
    # the oracle is a black-box cost meter: everything else asks through
    # query and reads its count and transcript, whatever its internals are tuned for
    assert all(name.startswith("_") for name in Oracle.__slots__)
    found = [f"{path.name}: {entry}" for path in _all_scripts() if path.name != "oracle.py" for entry in _oracle_internal_reads(path.read_text())]
    assert found == []
