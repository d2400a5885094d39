import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbh import algebra as al
from tbh import seminormal as sn
from tbh.bratteli import build_diagram, paths_to
from tbh.errors import (
    ConnectivityFailure,
    CriterionFailure,
    DistinctnessFailure,
    EntryPole,
    InvariantViolation,
    NotInPk,
    RelationFailure,
)
from tbh.matrices import SparseOperator, identity_columns
from tbh.params import HeckeParams
from tbh.partitions import (
    Tableau,
    enum_Pk,
    row_tableau_of,
    tableaux_to,
)

from reference import apply_s0, apply_si, box, relations_consolidated, shifted_content

P1111 = HeckeParams(1, 1, 1, 1)


# --- entry table ------------------------------------------------------------


def test_entry_table_values_1111():
    table = sn.entry_table((2, 1), P1111, 1)
    # basis sorted by shifted content: c_T(1) = -1 first
    assert table.contents[0][1] == -1
    assert table.diag_x[0] == Fraction(-1, 2)
    assert table.offdiag_x_sq[0] == Fraction(3, 4)
    assert table.diag_x[1] == Fraction(1, 2)


def test_entry_table_critical_content_gives_a():
    # At the critical content (a+p+b+q)/2 the off-diagonal dies and the
    # diagonal becomes a, matching the one-boundary eigenvalue picture.
    params = HeckeParams(2, 1, 2, 1)
    c = Fraction(params.a + params.p + params.b + params.q, 2)
    assert sn.offdiag_x_sq(c, params) == 0
    assert sn.diag_x_entry(c, params) == params.a
    assert sn.diag_x_entry(-c, params) == -params.p
    b_crit = Fraction(params.a + params.p - params.b - params.q, 2)
    assert sn.diag_x_entry(b_crit, params) == params.a
    assert sn.diag_x_entry(-b_crit, params) == -params.p


def test_entry_table_gap_two():
    assert sn.diag_t_entry(Fraction(0), Fraction(2)) == Fraction(1, 2)
    assert sn.offdiag_t_sq(Fraction(0), Fraction(2)) == Fraction(3, 4)


def test_entry_poles_raise_package_errors():
    # B = (a+p-b-q)/2 = 1/2 here, so a zero first content is a pole.
    params = HeckeParams(2, 1, 1, 1)
    c = Fraction(3, 2)
    with pytest.raises(EntryPole):
        sn.diag_t_entry(c, c)
    with pytest.raises(EntryPole):
        sn.diag_x_entry(Fraction(0), params)
    with pytest.raises(EntryPole):
        sn.offdiag_x_sq(Fraction(0), params)
    with pytest.raises(EntryPole):
        sn.offdiag_x_entry(Fraction(0), params)
    # c = 0 is critical even when B = 0: there is never an s_0 partner
    with pytest.raises(EntryPole):
        sn.offdiag_x_entry(Fraction(0), P1111)


def test_zero_content_with_b_zero_is_critical_with_eigenvalue_a():
    # a + p = b + q with p > q puts the first box at (q+1, a+1) whenever
    # c_T(1) = 0: a one-parent box extending (a^p) to the right.
    params = HeckeParams(1, 2, 2, 1)
    assert sn.diag_x_entry(Fraction(0), params) == params.a
    assert sn.offdiag_x_sq(Fraction(0), params) == 0
    zeros = 0
    for k in range(1, 4):
        for lam in sorted(enum_Pk(params, k), reverse=True):
            sn.check_criteria(lam, params, k)
            module = sn.build_module(lam, params, k)
            for ti, c in enumerate(module.table.contents):
                if c[1] == 0:
                    assert box(module.basis[ti], 1) == (params.q + 1, params.a + 1)
                    assert module.table.neighbor_s[ti][0] is None
                    zeros += 1
            assert all(r.exact and r.passed for r in sn.check_full_relations(module))
            assert sn.quadratic_deviation(module) == (0, 0)
    assert zeros > 0


def test_rational_gauge_entries_multiply_to_radicands():
    params = HeckeParams(2, 1, 2, 1)
    for c in (Fraction(1, 2), Fraction(-5, 2), Fraction(7, 2)):
        pair = sn.offdiag_x_entry(c, params) * sn.offdiag_x_entry(-c, params)
        assert pair == sn.offdiag_x_sq(c, params)
    c_i, c_next = Fraction(-1), Fraction(2)
    d = sn.diag_t_entry(c_i, c_next)
    assert (1 + d) * (1 + sn.diag_t_entry(c_next, c_i)) == sn.offdiag_t_sq(c_i, c_next)


def test_entry_table_rejects_wrong_weight():
    with pytest.raises(NotInPk):
        sn.entry_table((4,), P1111, 1)


# (1,2,2,1) and (2,3,2,1) have B = 0, where c_T(1) = 0 is critical.
REFERENCE_GRID = [
    ((1, 1, 1, 1), 3),
    ((2, 1, 2, 1), 3),
    ((1, 2, 2, 1), 3),
    ((2, 3, 2, 1), 3),
    ((2, 2, 2, 2), 4),
]


@pytest.mark.parametrize("abpq,kmax", REFERENCE_GRID)
def test_entry_table_matches_tableau_level_definitions(abpq, kmax):
    # The table reads integer contents off the shapes and finds neighbors
    # by shape lookup; rebuild it from shifted_content, apply_si, apply_s0
    # and the entry functions, tableau by tableau.
    params = HeckeParams(*abpq)
    for k in range(kmax + 1):
        for lam in sorted(enum_Pk(params, k), reverse=True):
            table = sn.entry_table(lam, params, k)
            basis = table.basis
            index = {t: ti for ti, t in enumerate(basis)}
            contents = tuple(
                tuple(shifted_content(t, i, params) for i in range(k + 1)) for t in basis
            )
            neighbor = []
            for t in basis:
                moved = [apply_s0(t, params)] if k else []
                moved += [apply_si(t, i, params) for i in range(1, k)]
                neighbor.append(tuple(None if s is None else index[s] for s in moved))
            dt, ot, dx, ox = {}, {}, {}, {}
            for ti, c in enumerate(contents):
                for i in range(1, k):
                    dt[(ti, i)] = sn.diag_t_entry(c[i], c[i + 1])
                    live = neighbor[ti][i] is not None
                    ot[(ti, i)] = sn.offdiag_t_sq(c[i], c[i + 1]) if live else 0
                if k:
                    dx[ti] = sn.diag_x_entry(c[1], params)
                    live = neighbor[ti][0] is not None
                    ox[ti] = sn.offdiag_x_sq(c[1], params) if live else 0
            reference = sn.EntryTable(
                lam, k, basis, contents, tuple(neighbor), dt, ot, dx, ox
            )
            assert table == reference


@pytest.mark.parametrize("mv", [0, 1])
def test_entry_table_neighbor_outside_basis_raises(monkeypatch, mv):
    # Drop a tableau that is the s_mv neighbor of another: looking it up fails.
    params = HeckeParams(2, 2, 2, 2)
    lam, k = (5, 3, 2, 1), 3
    full = sn.entry_table(lam, params, k)
    dropped = next(full.basis[s[mv]] for s in full.neighbor_s if s[mv] is not None)
    real = sn.tableaux_to
    monkeypatch.setattr(
        sn, "tableaux_to", lambda *args: [t for t in real(*args) if t != dropped]
    )
    with pytest.raises(InvariantViolation, match="not a basis tableau"):
        sn.entry_table(lam, params, k)


# --- module construction ------------------------------------------------------


def test_build_module_x_matrix_1111():
    module = sn.build_module((2, 1), P1111, 1)
    x = module.operators[(al.X, 1)]
    assert x.cols[0][0] == Fraction(-1, 2) and x.cols[1][1] == Fraction(1, 2)
    assert x.cols[1][0] == Fraction(3, 2) and x.cols[0][1] == Fraction(1, 2)
    assert x.cols[1][0] * x.cols[0][1] == Fraction(3, 4) == module.table.offdiag_x_sq[0]
    # x1^2 = 1: the spectrum is {1, -1}, the roots of (x - a)(x + p) at a = p = 1.
    square = al.evaluate_word(al.word((al.X, 1), (al.X, 1)), module.operators)
    assert square == identity_columns(2)


def test_operators_are_built_once():
    module = sn.build_module((2, 1), P1111, 1)
    assert module.operators is module.operators


def test_k1_module_has_no_t_generators():
    module = sn.build_module((2, 1), P1111, 1)
    ops = module.operators
    assert (al.T, 1) not in ops
    assert set(ops) == {(al.W, 0), (al.W, 1), (al.X, 1)}
    assert ops[(al.W, 1)].cols == [{0: -1}, {1: 1}]


def test_k0_module_is_w0_only():
    module = sn.build_module((2,), P1111, 0)
    assert module.dim == 1
    assert set(module.operators) == {(al.W, 0)}
    sn.check_criteria((2,), P1111, 0)
    cert = sn.check_simplicity(module)
    assert cert.witnesses == {0: ()}


def test_basis_size_matches_path_count():
    params = HeckeParams(2, 2, 2, 2, 2)
    diagram = build_diagram(params)
    for lam in diagram.levels[3]:
        module = sn.build_module(lam, params, 2)
        assert module.dim == len(paths_to(diagram, lam, 3).paths)


# --- content tables -----------------------------------------------------------


def test_three_step_content_pattern():
    # Around any tableau with all neighbor moves defined, the six tableaux
    # obtained from s_i and s_{i+1} carry contents in the pattern
    #   T: (A,B,C)  siT: (B,A,C)  s_{i+1}T: (A,C,B)
    #   s_i s_{i+1} T: (C,A,B)  s_{i+1} s_i T: (B,C,A)  s_i s_{i+1} s_i T: (C,B,A)
    params = HeckeParams(2, 2, 2, 2)
    checked = 0
    for lam in sorted(enum_Pk(params, 3), reverse=True):
        for t in tableaux_to(lam, 3, params):
            i = 1
            a, b, c = (shifted_content(t, j, params) for j in (i, i + 1, i + 2))
            expect = {
                (i,): (b, a, c),
                (i + 1,): (a, c, b),
                ((i + 1), i): (c, a, b),
                (i, (i + 1)): (b, c, a),
                (i, (i + 1), i): (c, b, a),
            }
            for moves, pattern in expect.items():
                cur = t
                for mv in moves:
                    cur = apply_si(cur, mv, params)
                    if cur is None:
                        break
                if cur is None:
                    continue
                got = tuple(shifted_content(cur, j, params) for j in (i, i + 1, i + 2))
                assert got == pattern
                checked += 1
    assert checked > 20


def test_four_step_content_pattern():
    # The eight tableaux reached by alternating s_0 and s_1 carry contents
    #   c(1): A -A B -B  B -B  A -A
    #   c(2): B  B A  A -A -A -B -B
    params = HeckeParams(2, 2, 2, 2)
    checked = 0
    for lam in sorted(enum_Pk(params, 2), reverse=True):
        for t in tableaux_to(lam, 2, params):
            a, b = shifted_content(t, 1, params), shifted_content(t, 2, params)
            expect = {
                (0,): (-a, b),
                (1,): (b, a),
                (1, 0): (-b, a),
                (0, 1): (b, -a),
                (0, 1, 0): (-b, -a),
                (1, 0, 1): (a, -b),
                (1, 0, 1, 0): (-a, -b),
            }
            for moves, pattern in expect.items():
                cur = t
                for mv in moves:
                    cur = apply_s0(cur, params) if mv == 0 else apply_si(cur, mv, params)
                    if cur is None:
                        break
                if cur is None:
                    continue
                got = (shifted_content(cur, 1, params), shifted_content(cur, 2, params))
                assert got == pattern
                checked += 1
    assert checked > 10


# --- criteria and relation suites ----------------------------------------------


GRID = [
    ((1, 1, 1, 1), 3),
    ((2, 1, 1, 1), 3),
    ((2, 2, 2, 1), 2),
    ((2, 2, 2, 2), 2),
]


@pytest.mark.parametrize("abpq,kmax", GRID)
def test_criteria_and_relations_pass(abpq, kmax):
    params = HeckeParams(*abpq)
    for k in range(kmax + 1):
        for lam in sorted(enum_Pk(params, k), reverse=True):
            sn.check_criteria(lam, params, k)
            module = sn.build_module(lam, params, k)
            if k >= 1:
                results = sn.check_full_relations(module)
                assert all(r.passed for r in results)


def test_criteria_corrupted_radicand_fails_exactly(monkeypatch):
    # The exact squared checks alone must catch a wrong radicand.
    params = HeckeParams(2, 2, 2, 2)
    lam = (5, 3, 2, 1)
    real = sn.entry_table

    def corrupted_table(*args):
        table = real(*args)
        key = next(key for key, sq in table.offdiag_t_sq.items() if sq)
        bad = dict(table.offdiag_t_sq)
        bad[key] += Fraction(1, 5)
        return dataclasses.replace(table, offdiag_t_sq=bad)

    sn.check_criteria(lam, params, 3)
    monkeypatch.setattr(sn, "entry_table", corrupted_table)
    with pytest.raises(CriterionFailure):
        sn.check_criteria(lam, params, 3)


# Negative controls for check_criteria's shortcuts, on the (2,2,2,2) k=3
# module of test_criteria_corrupted_radicand_fails_exactly (dim 18).
K3_LAM = (5, 3, 2, 1)
K3_PARAMS = HeckeParams(2, 2, 2, 2)
# The squared chains that items (3) and (6) compare at k = 3.
K3_CHAINS = [(0, 2), (2, 0), (1, 2, 1), (2, 1, 2), (1, 0, 1, 0), (0, 1, 0, 1)]


def _criteria_on(monkeypatch, table):
    monkeypatch.setattr(sn, "entry_table", lambda *args: table)
    with pytest.raises(CriterionFailure) as failure:
        sn.check_criteria(K3_LAM, K3_PARAMS, 3)
    return failure.value.item


def _entry_first_read_by_a_chain(table):
    """A t-radicand (u, i) that a defined chain at an earlier tableau reads
    before item (4) reads it, at u or at s_i u."""
    first = {}  # (u, i) -> earliest tableau whose defined chain reads it
    for ti in range(len(table.basis)):
        for moves in K3_CHAINS:
            cur, read = ti, []
            for mv in moves:
                nxt = table.neighbor_s[cur][mv]
                if nxt is None:
                    break
                read.append((cur, mv))
                cur = nxt
            else:
                for key in read:
                    first.setdefault(key, ti)
    for (u, i), ti in first.items():
        if i >= 1 and ti < min(u, table.neighbor_s[u][i]):
            return u, i
    raise AssertionError("no t-radicand is read first by a chain")


@pytest.mark.parametrize("part", ["numerator", "denominator"])
def test_chain_comparison_reads_numerator_and_denominator(monkeypatch, part):
    # Change one part of one squared entry, keeping the other part exact:
    # n/d -> (n + d)/d or n/(n + d), both already reduced.  The entry is
    # read by a chain before item (4) sees it, so item (3) or (6) must fail.
    table = sn.entry_table(K3_LAM, K3_PARAMS, 3)
    sn.check_criteria(K3_LAM, K3_PARAMS, 3)
    key = _entry_first_read_by_a_chain(table)
    num, den = table.offdiag_t_sq[key].numerator, table.offdiag_t_sq[key].denominator
    bad = Fraction(num + den, den) if part == "numerator" else Fraction(num, num + den)
    assert (bad.numerator == num) == (part == "denominator")
    assert (bad.denominator == den) == (part == "numerator")
    radicands = {**table.offdiag_t_sq, key: bad}
    item = _criteria_on(monkeypatch, dataclasses.replace(table, offdiag_t_sq=radicands))
    assert item in (3, 6)


def test_memoised_diag_t_identity_rechecks_a_corrupted_entry(monkeypatch):
    # The last (ti, i) without an s_i neighbour (so no sign check reads it)
    # whose content pair already passed item (1) at an earlier tableau.
    table = sn.entry_table(K3_LAM, K3_PARAMS, 3)
    seen, last = set(), None
    for ti, c in enumerate(table.contents):
        for i in range(1, 3):
            if (c[i], c[i + 1]) in seen and table.neighbor_s[ti][i] is None:
                last = (ti, i)
        seen.update((c[i], c[i + 1]) for i in range(1, 3))
    assert last is not None
    diag = {**table.diag_t, last: table.diag_t[last] + 1}
    assert _criteria_on(monkeypatch, dataclasses.replace(table, diag_t=diag)) == 1


def test_memoised_diag_x_identity_rechecks_a_corrupted_entry(monkeypatch):
    # The last tableau whose c_T(1) already passed item (2) earlier.
    table = sn.entry_table(K3_LAM, K3_PARAMS, 3)
    firsts = [c[1] for c in table.contents]
    last = max(ti for ti, c1 in enumerate(firsts) if c1 in firsts[:ti])
    diag = {**table.diag_x, last: table.diag_x[last] + 1}
    assert _criteria_on(monkeypatch, dataclasses.replace(table, diag_x=diag)) == 2


def test_criteria_example_2_2():
    report = sn.check_criteria((2, 2), P1111, 2)
    assert report.items["2"] == 2  # two basis tableaux
    assert report.items["6"] == 2


def test_relation_negative_control_dropped_twist_constant():
    # Remove the -1 from the t w twist: the suite must fail.
    params = HeckeParams(1, 1, 1, 1, 2)
    module = sn.build_module((2, 2), params, 2)
    corrupted = []
    for rel in al.relations_short(params):
        if rel.family == "twist.tw":
            corrupted.append(
                al.RelationPair(
                    rel.name, rel.family, rel.lhs, al.word((al.W, 2), (al.T, 1))
                )
            )
        else:
            corrupted.append(rel)
    with pytest.raises(RelationFailure):
        sn.check_full_relations(module, catalog=corrupted)


def _module_with_both_offdiagonals(params, k):
    for lam in sorted(enum_Pk(params, k), reverse=True):
        module = sn.build_module(lam, params, k)
        if all(any(row[mv] is not None for row in module.table.neighbor_s) for mv in (0, 1)):
            return module
    raise AssertionError("no module with both t_1 and x_1 off-diagonals")


@pytest.mark.parametrize("gen", [(al.T, 1), (al.X, 1)])
def test_corrupted_rational_offdiagonal_fails_relations(gen):
    module = _module_with_both_offdiagonals(HeckeParams(2, 1, 1, 1), 2)
    ops = module.operators
    cols = [dict(c) for c in ops[gen].cols]
    s = next(s for s, col in enumerate(cols) if len(col) == 2)
    t = next(r for r in cols[s] if r != s)
    cols[s][t] += Fraction(1, 3)
    bad = {**ops, gen: SparseOperator(cols)}
    with pytest.raises(RelationFailure):
        sn.check_full_relations(dataclasses.replace(module, operators=bad))


def _integer_corruption(op, part):
    """A copy of op with one integer numerator raised by one, keeping
    ``den`` ("numerator"), or with only ``den`` changed ("denominator")."""
    bad = SparseOperator(op.cols)
    if part == "numerator":
        num = [dict(col) for col in op.num]
        s = next(s for s, col in enumerate(num) if len(col) == 2)
        t = next(r for r in num[s] if r != s)
        num[s][t] += 1
        bad.num = num
    else:
        bad.den = op.den + 1
    return bad


@pytest.mark.parametrize("part", ["numerator", "denominator"])
@pytest.mark.parametrize("gen", [(al.T, 1), (al.X, 1)])
def test_corrupted_integer_operator_fails_relations(gen, part):
    # The relations read the operators' num and den: corrupting either one
    # alone must fail them.
    module = _module_with_both_offdiagonals(HeckeParams(2, 1, 1, 1), 2)
    ops = module.operators
    assert ops[gen].den > 1
    bad = {**ops, gen: _integer_corruption(ops[gen], part)}
    with pytest.raises(RelationFailure):
        sn.check_full_relations(dataclasses.replace(module, operators=bad))


def test_quadratic_spectra():
    # (x1 - a)(x1 + p) = 0 and (y1 - b)(y1 + q) = 0 on every built module.
    for abpq, kmax in GRID:
        params = HeckeParams(*abpq)
        for k in range(1, kmax + 1):
            for lam in sorted(enum_Pk(params, k), reverse=True):
                module = sn.build_module(lam, params, k)
                assert sn.quadratic_deviation(module) == (0, 0)


def test_t_matrices_are_involutions():
    params = HeckeParams(2, 2, 2, 2, 3)
    lam = sorted(enum_Pk(params, 3), reverse=True)[4]
    module = sn.build_module(lam, params, 3)
    for i in range(1, 3):
        square = al.evaluate_word(al.word((al.T, i), (al.T, i)), module.operators)
        assert square == identity_columns(module.dim)


def test_w_matrices_commute_and_joint_spectrum():
    params = HeckeParams(2, 1, 1, 1, 2)
    for lam in sorted(enum_Pk(params, 2), reverse=True):
        module = sn.build_module(lam, params, 2)
        ops = module.operators
        ws = [(al.W, i) for i in range(3)]
        for a in ws:
            for b in ws:
                ab = al.evaluate_word(al.word(a, b), ops)
                assert ab == al.evaluate_word(al.word(b, a), ops)
        lists = {
            tuple(c[i] for i in range(3)) for c in module.table.contents
        }
        joint = set()
        for d in range(module.dim):
            assert all(set(ops[w].cols[d]) <= {d} for w in ws)
            joint.add(tuple(ops[w].cols[d].get(d, 0) for w in ws))
        assert joint == lists


# --- numerics invariants ---------------------------------------------------------


def test_radicand_lower_bound():
    # Wherever a t off-diagonal is nonzero the content gap is at least 2,
    # so the radicand 1 - diag^2 is at least 3/4.
    for abpq, kmax in GRID:
        params = HeckeParams(*abpq)
        for k in range(1, kmax + 1):
            for lam in sorted(enum_Pk(params, k), reverse=True):
                table = sn.entry_table(lam, params, k)
                for (ti, i), sq in table.offdiag_t_sq.items():
                    if sq:
                        gap = table.contents[ti][i + 1] - table.contents[ti][i]
                        assert abs(gap) >= 2
                        assert sq >= Fraction(3, 4)
                for ti, sq in table.offdiag_x_sq.items():
                    if table.neighbor_s[ti][0] is not None:
                        assert sq > 0


# --- simplicity -------------------------------------------------------------------


def test_simplicity_certificates_across_grid():
    for abpq, kmax in GRID:
        params = HeckeParams(*abpq)
        for k in range(kmax + 1):
            for lam in sorted(enum_Pk(params, k), reverse=True):
                module = sn.build_module(lam, params, k)
                cert = sn.check_simplicity(module)
                assert len(cert.witnesses) == module.dim
                assert all(
                    all(0 <= mv <= k - 1 for mv in wit)
                    for wit in cert.witnesses.values()
                )


def _replay(table, ti, moves):
    """Run a move word (applied left to right) through the entry table.

    Every step must land on a basis tableau with a nonzero squared
    off-diagonal entry; returns the index reached.
    """
    cur = ti
    for mv in moves:
        nxt = table.neighbor_s[cur][mv]
        assert nxt is not None
        sq = table.offdiag_x_sq[cur] if mv == 0 else table.offdiag_t_sq[(cur, mv)]
        assert sq != 0
        cur = nxt
    return cur


def test_simplicity_small_example():
    module = sn.build_module((2, 1), P1111, 1)
    cert = sn.check_simplicity(module)
    assert module.table.contents[0][1:] == (-1,)
    assert module.table.contents[1][1:] == (1,)
    assert cert.witnesses[1] == (0,)  # s_0 connects the pair


def test_worked_example_witness_word_verbatim():
    # Start (5,4,4,2,1), end (7,4,4,3,3) with rectangles (4^3), (2^2):
    # the paper's walk reads s2 s1 s0 s2 s3 s1 s2 right to left.  It is a
    # live path of the move graph from T to the distinguished tableau.
    params = HeckeParams(4, 2, 3, 2)
    module = sn.build_module((7, 4, 4, 3, 3), params, 5)
    cert = sn.check_simplicity(module)
    assert cert.target.start == (6, 4, 4, 2)
    table = module.table
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
    moves = (2, 1, 3, 2, 0, 1, 2)  # application order
    assert tuple(reversed(moves)) == (2, 1, 0, 2, 3, 1, 2)  # written form
    ti = table.basis.index(t)
    assert table.basis[_replay(table, ti, moves)] == cert.target
    # The first four moves straighten T to its row filling.
    assert table.basis[_replay(table, ti, moves[:4])] == row_tableau_of(t.start, t.end)


def test_connectivity_reaches_common_target():
    # Every witness of every module in GRID replays to cert.target.  The
    # stall tableau is a hard case: its mirror slot carries label 2, which
    # s_1 cannot bubble down, so straightening then firing s_0 stalls.
    stall = Tableau(((4, 3, 1), (5, 3, 1), (5, 4, 1)))
    seen_stall = False
    for abpq, kmax in GRID:
        params = HeckeParams(*abpq)
        for k in range(kmax + 1):
            for lam in sorted(enum_Pk(params, k), reverse=True):
                module = sn.build_module(lam, params, k)
                cert = sn.check_simplicity(module)
                table = module.table
                for ti, moves in cert.witnesses.items():
                    assert table.basis[_replay(table, ti, moves)] == cert.target
                seen_stall |= stall in table.basis
    assert seen_stall


def test_module_json_dump():
    module = sn.build_module((2, 1), P1111, 1)
    doc = sn.module_to_json(module)
    assert doc["lambda"] == [2, 1] and doc["k"] == 1
    assert doc["basis"] == [[[2], [2, 1]], [[1, 1], [2, 1]]]
    assert doc["contents"] == [["1", "-1"], ["-1", "1"]]
    assert doc["matrices"]["x1"] == {
        "dim": 2,
        "cols": [{"0": "-1/2", "1": "1/2"}, {"0": "3/2", "1": "1/2"}],
    }
    assert doc["matrices"]["w1"]["cols"] == [{"0": "-1/1"}, {"1": "1/1"}]
    assert doc["radicands"] == {"x1": ["3/4", "3/4"]}


def _module_2222_k3():
    return sn.build_module((5, 3, 2, 1), HeckeParams(2, 2, 2, 2), 3)


def test_simplicity_counts_one_projector_per_basis_tableau():
    module = _module_2222_k3()
    cert = sn.check_simplicity(module)
    assert cert.projectors_checked == module.dim == 18
    assert cert.to_dict()["projectors_checked"] == 18


def test_content_collision_fails_distinctness():
    module = _module_2222_k3()
    contents = list(module.table.contents)
    contents[1] = contents[0]
    table = dataclasses.replace(module.table, contents=tuple(contents))
    with pytest.raises(DistinctnessFailure):
        sn.check_simplicity(dataclasses.replace(module, table=table))


@pytest.mark.parametrize("zeroed", ["x1", "t"])
def test_zeroed_witness_entry_fails_connectivity(zeroed):
    # Zero every squared entry of one kind.  The s_i never change T^(0) and
    # s_0 never changes T^(1..k), so either cut disconnects the move graph.
    # (One zeroed edge is not a failure while another live path exists.)
    module = _module_2222_k3()
    field = "offdiag_x_sq" if zeroed == "x1" else "offdiag_t_sq"
    entries = getattr(module.table, field)
    table = dataclasses.replace(module.table, **{field: dict.fromkeys(entries, Fraction(0))})
    with pytest.raises(ConnectivityFailure, match="unreached"):
        sn.check_simplicity(dataclasses.replace(module, table=table))


def test_distinguished_tableau_outside_basis_fails_connectivity(monkeypatch):
    module = _module_2222_k3()
    monkeypatch.setattr(sn, "t_lambda", lambda lam, params, k: Tableau(((2,), (2, 1))))
    with pytest.raises(ConnectivityFailure, match="not a basis tableau"):
        sn.check_simplicity(module)


# --- the rational gauge -------------------------------------------------------------


SWEEP_K3 = [(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2)]


def _name(gen):
    return f"{gen[0]}{gen[1]}"


def test_dumped_matrices_are_diagonal_conjugates_of_rational_operators():
    # Three parts per module: the dumped columns are the rational operator R
    # exactly; each dumped radicand is R_{T,sT} R_{sT,T} (0 without sT);
    # and M, with R's diagonal and sqrt(radicand) at (T, sT), is D^-1 R D.
    # D is built along the connectivity witnesses: M_{T,S} = R_{T,S} D_S /
    # D_T fixes D_T from D_S on every witness step, with D = 1 at the
    # distinguished tableau; every entry of M, on and off the witness
    # paths, must then match.
    checked = 0
    for abpq in SWEEP_K3:
        params = HeckeParams(*abpq)
        for k in range(4):
            for lam in sorted(enum_Pk(params, k), reverse=True):
                module = sn.build_module(lam, params, k)
                doc = sn.module_to_json(module)
                ops = module.operators
                n = module.dim
                neighbor = module.table.neighbor_s
                rational = {}
                assert set(doc["matrices"]) == {_name(gen) for gen in ops}
                for gen, op in ops.items():
                    dumped = doc["matrices"][_name(gen)]
                    assert dumped["dim"] == n
                    cols = [{int(r): Fraction(x) for r, x in col.items()} for col in dumped["cols"]]
                    assert cols == op.cols and all(0 not in col.values() for col in cols)
                    rational[gen] = [[cols[c].get(r, 0) for c in range(n)] for r in range(n)]
                moves = {(al.X, 1): 0, **{(al.T, i): i for i in range(1, k)}}
                assert set(doc["radicands"]) == {_name(gen) for gen in moves if gen in ops}
                dense = {}
                for gen, rows in rational.items():
                    m = [[float(rows[r][c]) if r == c else 0.0 for c in range(n)] for r in range(n)]
                    if gen in moves:
                        radicands = [Fraction(x) for x in doc["radicands"][_name(gen)]]
                        for t in range(n):
                            s = neighbor[t][moves[gen]]
                            if s is None:
                                assert radicands[t] == 0
                                continue
                            assert radicands[t] == rows[t][s] * rows[s][t]
                            m[t][s] = math.sqrt(radicands[t])
                    dense[gen] = m
                scale = {}
                for ti, word in sn.check_simplicity(module).witnesses.items():
                    d, cur = 1.0, ti
                    for mv in word:
                        gen = (al.X, 1) if mv == 0 else (al.T, mv)
                        nxt = neighbor[cur][mv]
                        d *= rational[gen][cur][nxt] / dense[gen][cur][nxt]
                        cur = nxt
                    scale[ti] = d
                for gen, rows in rational.items():
                    for r in range(n):
                        for c in range(n):
                            want = rows[r][c] * scale[c] / scale[r]
                            assert math.isclose(dense[gen][r][c], want, rel_tol=1e-12, abs_tol=1e-12)
                checked += 1
    assert checked == 158


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(1, 2),
    st.integers(1, 3),
    st.data(),
)
def test_rational_gauge_relations_are_exact(a, b, p, q, k, data):
    params = HeckeParams(a, b, p, q)
    lam = data.draw(st.sampled_from(sorted(enum_Pk(params, k), reverse=True)))
    module = sn.build_module(lam, params, k)
    for catalog in (None, relations_consolidated(params.with_k(k))):
        results = sn.check_full_relations(module, catalog=catalog)
        assert results and all(r.passed and r.exact for r in results)
    assert sn.quadratic_deviation(module) == (0, 0)
