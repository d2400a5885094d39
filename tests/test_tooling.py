"""Source-level guards over the ``tbh`` package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tbh"


def test_no_assert_statements_in_package():
    # Invariants raise package errors so that they still run under python -O.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert list(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr
        elif isinstance(node, ast.alias):
            yield node, node.name


def test_no_square_roots_or_tolerances_in_package():
    # Every check is exact: no square root and no tolerance comparison.
    banned = {"sqrt", "isclose", "approx_eq"}
    found = [
        f"{path.name}:{node.lineno}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for node, name in _names(ast.parse(path.read_text(), filename=str(path)))
        if name in banned
    ]
    assert list(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []
