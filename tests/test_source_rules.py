"""Rules the package source keeps, checked on its syntax tree."""

from __future__ import annotations

import ast
from pathlib import Path

import surfrep

PACKAGE = Path(surfrep.__file__).resolve().parent


def test_package_has_no_assert_statements():
    """Invariants raise real exceptions: ``python -O`` strips assert
    statements, so a check written as one would silently stop running."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
