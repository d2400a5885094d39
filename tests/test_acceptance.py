"""Acceptance suite: one criterion per test, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass.  Every check is exact.
"""

import time
from fractions import Fraction
from math import comb

import pytest

from tbh import algebra as al
from tbh import seminormal as sn
from tbh.bratteli import build_diagram
from tbh.matrices import Matrix, SparseOperator
from tbh.oracle import Carrier, TensorOracle, casimir_constant_gl, kappa_operator, realize_module
from tbh.params import HeckeParams
from tbh.partitions import (
    Tableau,
    all_partitions_of,
    content,
    enum_P,
    enum_Pk,
    is_in_P,
    parents,
    removable_corners,
    remove_box,
    tableaux_to,
    weyl_dim,
)

def dense(op):
    """The Matrix of a SparseOperator, for reading its rows."""
    rows = [[0] * op.dim for _ in range(op.dim)]
    for j, col in enumerate(op.cols):
        for i, v in col.items():
            rows[i][j] = v
    return Matrix(rows)


PARAM_GRID = [
    HeckeParams(a, b, p, q)
    for a in range(1, 5)
    for b in range(1, 5)
    for p in range(1, 4)
    for q in range(1, 4)
]

SEMINORMAL_GRID = [(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2)]

ORACLE_CONFIGS = [(2, k) for k in range(4)] + [(3, k) for k in range(3)]


def report(num, message):
    print(f"criterion {num:2d}: PASS  {message}")


def all_modules(kmax=3):
    for abpq in SEMINORMAL_GRID:
        params = HeckeParams(*abpq)
        for k in range(kmax + 1):
            for lam in sorted(enum_Pk(params, k), reverse=True):
                yield params, lam, k


def test_criterion_01_rectangle_set_law():
    start = time.time()
    for params in PARAM_GRID:
        members = enum_P(params)
        brute = {
            lam
            for lam in all_partitions_of(params.weight, params.p + params.q)
            if is_in_P(lam, params)
        }
        assert members == brute
        assert len(members) == comb(min(params.a, params.b) + params.q, params.q)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(1, f"|P| = C(min(a,b)+q, q) on {len(PARAM_GRID)} parameter sets ({elapsed:.2f} s)")


def test_criterion_02_figure_reproduction():
    # The b = q = 2 diagram at a = p = 4: six first-level labels given by
    # the gamma recursion, and levels of sizes 1, 6, 18 of which twelve
    # vertices have a unique lower neighbor.  (The source figure draws
    # 1 + 6 + 18 vertices; see the worked-example text: eighteen isotypic
    # components, twelve of them one-dimensional.)
    params = HeckeParams(4, 2, 4, 2, 1)
    diagram = build_diagram(params)
    labels = {label for _, _, label in diagram.edges[0]}
    assert labels == {16, 8, 2, -2, -8, -16}
    a, p = 4, 4
    assert labels == {4 * a, 3 * a - p, 2 * (a - p + 1), 2 * (a - p - 1), a - 3 * p, -4 * p}
    sizes = [len(level) for level in diagram.levels]
    assert sizes == [1, 6, 18]
    single = [mu for mu in diagram.levels[2] if len(parents(mu, params)) == 1]
    assert len(single) == 12
    report(2, "first-level labels {16,8,2,-2,-8,-16}; levels (1,6,18) with 12 one-parent vertices")


def test_criterion_03_parent_dichotomy():
    checked = 0
    for params in PARAM_GRID:
        critical = params.critical_contents()
        target = params.a - params.p + params.b - params.q
        for mu in enum_Pk(params, 1):
            removed = [
                (content(r, c), remove_box(mu, r)) for r, c in removable_corners(mu)
            ]
            inside = sorted(
                (c, lam) for c, lam in removed if is_in_P(lam, params)
            )
            got = parents(mu, params)
            assert got == [lam for _, lam in inside]
            contents = [c for c, _ in inside]
            if len(got) == 1:
                assert contents[0] in critical
            else:
                assert len(got) == 2
                assert all(c not in critical for c in contents)
                assert contents[0] + contents[1] == target
            checked += 1
    report(3, f"one-or-two parent dichotomy on {checked} shapes")


def test_criterion_04_seminormal_relation_suite():
    start = time.time()
    modules = 0
    for params, lam, k in all_modules():
        sn.check_criteria(lam, params, k)  # items (1)-(6), exact squared form
        if k >= 1:
            module = sn.build_module(lam, params, k)
            results = sn.check_full_relations(module)
            assert all(r.passed and r.exact for r in results)
        modules += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(4, f"criteria and full relation families on {modules} modules ({elapsed:.1f} s)")


def test_criterion_05_spectral_quadratics():
    checked = 0
    for params, lam, k in all_modules():
        if k == 0:
            continue
        module = sn.build_module(lam, params, k)
        assert sn.quadratic_deviation(module) == (0, 0)
        checked += 1
    report(5, f"(x1-a)(x1+p) = 0 and (y1-b)(y1+q) = 0 on {checked} modules")


def test_criterion_06_simplicity_certificates():
    witnesses = 0
    for params, lam, k in all_modules():
        module = sn.build_module(lam, params, k)
        cert = sn.check_simplicity(module)
        assert len(cert.witnesses) == module.dim
        witnesses += len(cert.witnesses)
    # the worked-example witness reproduces verbatim
    params = HeckeParams(4, 2, 3, 2)
    t = Tableau(
        (
            (5, 4, 4, 2, 1),
            (5, 4, 4, 3, 1),
            (5, 4, 4, 3, 2),
            (6, 4, 4, 3, 2),
            (7, 4, 4, 3, 2),
            (7, 4, 4, 3, 3),
        )
    )
    moves, _ = sn.connect_to_distinguished(t, params)
    assert tuple(reversed(moves)) == (2, 1, 0, 2, 3, 1, 2)
    report(6, f"{witnesses} connectivity witnesses; worked example word s2s1s0s2s3s1s2")


def test_criterion_07_oracle_transport():
    start = time.time()
    relations = 0
    for n, k in ORACLE_CONFIGS:
        oracle = TensorOracle(HeckeParams(1, 1, 1, 1, k), n)
        results = oracle.check_transport()
        relations += len(results)
        oracle.check_commutant()
        if k >= 1:
            oracle.check_factor_difference()
        oracle.check_twist_shifts()
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(7, f"{relations} relations transported exactly across {len(ORACLE_CONFIGS)} configs ({elapsed:.1f} s)")


def test_criterion_08_spectrum_matching():
    start = time.time()
    multiplicities = 0
    for n, k in ORACLE_CONFIGS:
        params = HeckeParams(1, 1, 1, 1, k)
        oracle = TensorOracle(params, n)
        multiplicities += len(oracle.check_spectra())
        assert oracle.check_dimension_bookkeeping() == oracle.module_dim
        if n >= params.p + params.q + k:
            # no height truncation: the plain Weyl sum gives the carrier
            total = sum(
                len(tableaux_to(lam, k, params)) * weyl_dim(lam, n)
                for lam in enum_Pk(params, k)
            )
            assert total == oracle.module_dim
    elapsed = time.time() - start
    report(8, f"{multiplicities} eigenvalue multiplicities via exact ranks ({elapsed:.1f} s)")


def test_criterion_09_casimir_constants():
    checked = 0
    for n in (2, 3):
        for size in range(1, 5):
            for lam in all_partitions_of(size, n):
                real = realize_module(lam, n)
                assert real.dim == weyl_dim(lam, n)
                carrier = Carrier(n, size, 0, 0)
                kappa = dense(kappa_operator(carrier, range(size)))
                const = casimir_constant_gl(lam, n)
                for col in real.columns:
                    image = [
                        sum(kappa.rows[i][j] * col[j] for j in range(carrier.dim))
                        for i in range(carrier.dim)
                    ]
                    assert image == [const * v for v in col]
                checked += 1
    report(9, f"Casimir constants on {checked} realized modules match the weight formula")


def test_criterion_10_negative_controls():
    # (a) corrupted t diagonal: the braid family must fail
    params = HeckeParams(1, 1, 1, 1, 3)
    module = sn.build_module((3, 2), params, 3)
    assignment = module.operators()
    cols = assignment[(al.T, 1)].cols
    cols[0] = {**cols[0], 0: cols[0].get(0, 0) + Fraction(1, 7)}
    assignment[(al.T, 1)] = SparseOperator(cols)
    results = al.check_relations(
        al.relations_short(params), assignment, al.definitions(params)
    )
    assert "t.braid" in {r.family for r in results if not r.passed}

    # (b) dropped twist constant: the corrupted catalog must fail
    params2 = HeckeParams(1, 1, 1, 1, 2)
    module2 = sn.build_module((2, 2), params2, 2)
    corrupted = [
        al.RelationPair(r.name, r.family, r.lhs, al.word((al.W, 2), (al.T, 1)))
        if r.family == "twist.tw"
        else r
        for r in al.relations_short(params2)
    ]
    with pytest.raises(sn.RelationFailure):
        sn.check_full_relations(module2, catalog=corrupted)

    # (c) wrong gamma factor in x_1: relation transport must object
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
    images = oracle.phi_images()
    images[(al.X, 1)] = oracle.gamma("M", 2)
    defs = al.definitions(oracle.params)
    broken = 0
    for rel in al.relations_short(oracle.params):
        lhs = oracle.evaluate_on_inclusion(rel.lhs, images, defs)
        rhs = oracle.evaluate_on_inclusion(rel.rhs, images, defs)
        if lhs != rhs:
            broken += 1
    assert broken > 0
    report(10, "corrupted entries, twist constant, and gamma factor all detected")
