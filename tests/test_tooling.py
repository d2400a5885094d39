"""Source-level guards over the ``tbh`` package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tbh"


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


_SKEWED_SPECTRA = """
import sys
from tbh.errors import SpectrumMismatch
from tbh.oracle import TensorOracle
from tbh.params import HeckeParams

oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
skewed = oracle.predicted_spectra()
low, high = sorted(skewed[2])[:2]
skewed[2][low] -= 1
skewed[2][high] += 1
oracle.predicted_spectra = lambda: skewed
try:
    oracle.check_spectra()
except SpectrumMismatch as failure:
    print("optimize", sys.flags.optimize, "spectrum", failure)
else:
    print("optimize", sys.flags.optimize, "passed")
"""


def test_spectra_still_fail_under_python_O():
    # One unit of z_2 multiplicity moved between eigenvalues must fail the
    # exact spectra in an interpreter that strips asserts.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SKEWED_SPECTRA],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # The sum still matches, so it is a rank that fails, not the sum check.
    words = proc.stdout.split()
    assert words[:5] == ["optimize", "1", "spectrum", "z_2", "eigenvalue"], proc.stdout


# The one definition kept without a caller: the README documents it as the
# inverse of the diagram export.
ALLOWED_UNREFERENCED = {"src/tbh/bratteli.py:from_json"}


def _top_level_references(tree):
    """(node, names it mentions) per top-level statement.

    A name counts when it appears as a variable, an attribute, or a string
    constant (the benchmark tracer names the functions it wraps).  A
    variable that the statement binds itself, as a parameter or an
    assignment target, is local there and does not count.
    """
    out = []
    for node in tree.body:
        names, variables, bound = set(), set(), set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                (bound if isinstance(sub.ctx, ast.Store) else variables).add(sub.id)
            elif isinstance(sub, ast.arg):
                bound.add(sub.arg)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.add(sub.value)
        out.append((node, names | (variables - bound)))
    return out


def _unreferenced(defining, referencing):
    """Module-level functions and classes of ``defining`` that nothing names.

    Both arguments map a file path to its source.  A definition is
    referenced when some other top-level statement of either set names
    it; its own body (a recursive call, a method naming its class) does
    not count, and neither does a bare import.
    """
    parsed = {
        name: _top_level_references(ast.parse(text, filename=name))
        for name, text in {**referencing, **defining}.items()
    }
    return [
        f"{name}:{node.name}"
        for name in defining
        for node, _ in parsed[name]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(
            node.name in names
            for statements in parsed.values()
            for other, names in statements
            if other is not node
        )
    ]


def _sources(*dirs):
    return {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for d in dirs
        for path in sorted(d.glob("*.py"))
    }


def test_every_package_definition_has_a_caller():
    # Test-only helpers live in tests/reference.py, not in the package.
    defining = _sources(SRC)
    referencing = _sources(ROOT / "scripts", ROOT / "perfbench")
    assert defining and referencing, f"no sources under {ROOT}"
    assert sorted(set(_unreferenced(defining, referencing)) - ALLOWED_UNREFERENCED) == []


def test_unreferenced_scan_flags_a_dead_definition():
    # ``shadowed`` is named only where a parameter or a local variable of
    # that name is bound, so nothing refers to the definition.
    defining = {
        "mod.py": (
            "def used():\n    return 1\n\n"
            "def dead(n):\n    return dead(n - 1) if n else used()\n\n"
            "def shadowed():\n    return 2\n\n"
            "def by_parameter(shadowed):\n    return shadowed\n\n"
            "class Kept:\n    pass\n"
        )
    }
    referencing = {
        "driver.py": (
            "from mod import Kept, dead\n"
            "print(used(), Kept(), by_parameter(3))\n"
            "squares = [shadowed * shadowed for shadowed in range(3)]\n"
        )
    }
    assert _unreferenced(defining, referencing) == ["mod.py:dead", "mod.py:shadowed"]
