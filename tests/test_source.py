"""Source-level rules for the package itself."""

import ast
import importlib
from pathlib import Path

import opquery

SOURCES = sorted(Path(opquery.__file__).parent.glob("*.py"))


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
    root = Path(__file__).resolve().parent.parent
    scripts = sorted(root.glob("bench/*.py")) + sorted(root.glob("demos/*.py"))
    used = {(path.relative_to(root).as_posix(), module, name) for path in scripts for module, name in _opquery_names(path)}
    assert {name for _, module, name in used if module == "opquery"} >= {"query_budget", "recover_abelian_prime", "Oracle"}
    missing = [entry for entry in sorted(used) if not hasattr(importlib.import_module(entry[1]), entry[2])]
    assert missing == []


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
    root = Path(__file__).resolve().parent.parent
    files = SOURCES + sorted(root.glob("tests/*.py")) + sorted(root.glob("bench/*.py")) + sorted(root.glob("demos/*.py"))
    found = [f"{path.name}:{scope}" for path in files for scope in _trusted_references(path.read_text())]
    assert sorted(found) == ["algebra.py:OpTable.relabel", "algebra.py:RingTables.relabel"]
