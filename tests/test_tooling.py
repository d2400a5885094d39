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
