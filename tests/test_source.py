"""Source-level rules for the package itself."""

import ast
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
