"""Source-level guards over the ``tbh`` package."""

import ast
import os
import subprocess
import sys
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


_CORRUPT_AND_CHECK = """
import dataclasses, sys
from tbh import seminormal as sn
from tbh.errors import CriterionFailure
from tbh.params import HeckeParams

params, lam = HeckeParams(2, 2, 2, 2), (5, 3, 2, 1)
table = sn.entry_table(lam, params, 3)
key = next(key for key, sq in table.offdiag_t_sq.items() if sq)
radicands = {**table.offdiag_t_sq, key: table.offdiag_t_sq[key] + 1}
sn.entry_table = lambda *args: dataclasses.replace(table, offdiag_t_sq=radicands)
try:
    sn.check_criteria(lam, params, 3)
except CriterionFailure as failure:
    print("optimize", sys.flags.optimize, "item", failure.item)
else:
    print("optimize", sys.flags.optimize, "passed")
"""


def test_criteria_still_fail_under_python_O():
    # The assert scan above is static; this runs a corrupted table through
    # check_criteria in an interpreter that strips asserts.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_AND_CHECK],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    words = proc.stdout.split()
    assert words[:3] == ["optimize", "1", "item"], proc.stdout
    assert int(words[3]) in range(1, 7)


_CORRUPT_RELATIONS = """
import sys
from tbh import algebra as al
from tbh import seminormal as sn
from tbh.errors import RelationFailure
from tbh.matrices import SparseOperator
from tbh.params import HeckeParams

module = sn.build_module((4, 1), HeckeParams(2, 1, 1, 1), 2)
t1 = module.operators[(al.T, 1)]
bad = SparseOperator(t1.cols)
bad.num = [dict(col) for col in t1.num]
bad.num[0][0] += 1
module.operators[(al.T, 1)] = bad
try:
    sn.check_full_relations(module)
except RelationFailure as failure:
    print("optimize", sys.flags.optimize, "relation", failure.name)
else:
    print("optimize", sys.flags.optimize, "passed")
"""


def test_relations_still_fail_under_python_O():
    # One corrupted integer numerator of t_1 must fail the relation suite
    # in an interpreter that strips asserts.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_RELATIONS],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[:3] == ["optimize", "1", "relation"], proc.stdout
