from fractions import Fraction

import pytest

from tbh import algebra as al
from tbh import seminormal as sn
from tbh.errors import DimensionMismatch, InexactEntry, UnassignedGenerator
from tbh.matrices import Matrix, SparseOperator, identity_columns
from tbh.params import HeckeParams
from tbh.partitions import enum_Pk


def perm_matrix(images, n):
    """Permutation operator sending basis e_j to e_{images[j]}."""
    return SparseOperator([{images[j]: 1} for j in range(n)])


def corrupted(op, row, col, delta):
    """Copy of a sparse operator with delta added to one entry."""
    cols = [dict(c) for c in op.cols]
    cols[col][row] = cols[col].get(row, 0) + delta
    return SparseOperator(cols)


# --- catalog structure --------------------------------------------------------


def short_catalog_size(k):
    if k == 0:
        return 0
    sym = (k - 1) + max(k - 2, 0) + max(k - 2, 0) * max(k - 3, 0) // 2
    braid4 = 1 if k >= 2 else 0
    comm_tw = (k - 1) * (k - 1)  # j in 0..k minus the two touched indices
    comm_xw = k - 1
    comm_xt = max(k - 2, 0)
    comm_ww = (k + 1) * k // 2
    return sym + braid4 + 1 + comm_tw + comm_xw + comm_xt + comm_ww + (k - 1) + 2


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_short_catalog_size_formula(k):
    params = HeckeParams(1, 1, 1, 1, k)
    assert len(al.relations_short(params)) == short_catalog_size(k)


def test_short_catalog_k1_families():
    params = HeckeParams(1, 1, 1, 1, 1)
    families = [r.family for r in al.relations_short(params)]
    assert families == ["x.quadratic", "commute.ww", "twist.xw0", "twist.xw1"]


def test_xw_relation_constants_vanish_for_1111():
    # a - p = 0 and K = 0, so the relation collapses to
    # x1 w1 = -w1 x1 + w1^2.
    params = HeckeParams(1, 1, 1, 1, 1)
    rel = [r for r in al.relations_short(params) if r.family == "twist.xw1"][0]
    assert rel.rhs == (
        (Fraction(-1), ((al.W, 1), (al.X, 1))),
        (Fraction(1), ((al.W, 1), (al.W, 1))),
    )


def test_comm_xw_index_range():
    params = HeckeParams(1, 1, 1, 1, 3)
    names = [r.name for r in al.relations_short(params) if r.family == "commute.xw"]
    assert names == ["x1 w2 = w2 x1", "x1 w3 = w3 x1"]


def test_quadratic_relation_pair_generic():
    params = HeckeParams(3, 1, 2, 1, 1)
    rel = [r for r in al.relations_short(params) if r.family == "x.quadratic"][0]
    # (x1 - a)(x1 + p) expands to x1^2 + (p - a) x1 - ap
    assert rel.rhs == ()
    expanded = {}
    for coeff, factors in rel.lhs:
        expanded[factors] = expanded.get(factors, 0) + coeff
    assert expanded[((al.X, 1), (al.X, 1))] == 1
    assert expanded[((al.X, 1),)] == 2 - 3
    assert expanded[()] == -3 * 2


def test_braid_catalog_k1_has_no_t_generators():
    # Degenerate case m_1 = 0: only the z definition, commutativity, and
    # the zsum twists survive, none of which mention transpositions.
    rels = al.relations_braid(1)
    assert {r.family for r in rels} == {
        "z.definition",
        "commute.zz",
        "twist.xzsum",
        "twist.yzsum",
    }
    assert rels[0].name == "z1 = x1 + y1 - m1"
    gens = {
        g[0]
        for rel in rels
        for side in (rel.lhs, rel.rhs)
        for _, factors in side
        for g in factors
    }
    assert al.T not in gens


def test_braid_catalog_k2_contains_xy_match():
    names = [r.name for r in al.relations_braid(2) if r.family == "braid.xy.match"]
    assert names == ["x2 - t1 x1 t1 = y2 - t1 y1 t1"]


# --- word evaluation ------------------------------------------------------------


def test_empty_word_is_identity():
    assert al.evaluate_word(al.wconst(1), {}, dim=3) == identity_columns(3)
    assert al.evaluate_word((), {}, dim=2) == [{}, {}]


def test_involution_word():
    t = perm_matrix([1, 0, 2], 3)
    w = al.word((al.T, 1), (al.T, 1))
    assert al.evaluate_word(w, {(al.T, 1): t}) == identity_columns(3)


def test_unassigned_generator():
    with pytest.raises(UnassignedGenerator):
        al.evaluate_word(al.word((al.X, 1)), {(al.T, 1): perm_matrix([0, 1], 2)})


def test_mismatched_assignment_dimensions():
    assignment = {(al.T, 1): perm_matrix([0, 1], 2), (al.X, 1): perm_matrix([0, 1, 2], 3)}
    with pytest.raises(DimensionMismatch):
        al.evaluate_word(al.word((al.T, 1), (al.X, 1)), assignment)


def test_evaluator_rejects_inexact_entries():
    # Floats would make the comparison tolerance-dependent: the evaluator
    # refuses them with a package error, whatever container they come in.
    word = al.word((al.T, 1))
    with pytest.raises(InexactEntry):
        al.evaluate_word(word, {(al.T, 1): [{0: 0.5}]})
    with pytest.raises(InexactEntry):
        al.evaluate_word(word, {(al.T, 1): Matrix([[0.5, 0], [0, 1]])})


def test_evaluator_dense_matrix_agrees_with_sparse():
    dense = Matrix([[1, Fraction(1, 2)], [0, 3]])
    sparse = SparseOperator([{0: 1}, {0: Fraction(1, 2), 1: 3}])
    w = al.word((al.T, 1), (al.T, 1))
    image = al.evaluate_word(w, {(al.T, 1): sparse})
    assert al.evaluate_word(w, {(al.T, 1): dense}) == image
    assert image == [{0: 1}, {0: 2, 1: 9}]  # columns of the square


def test_m3_expands_to_transposition_words():
    # m_3 = t_(1 3) + t_(2 3); under any braid-satisfying assignment this
    # must agree with t2 t1 t2 + t2.
    params = HeckeParams(1, 1, 1, 1, 3)
    defs = al.definitions(params)
    t1 = perm_matrix([1, 0, 2], 3)  # permutation rep of S_3 on 3 points
    t2 = perm_matrix([0, 2, 1], 3)
    assignment = {(al.T, 1): t1, (al.T, 2): t2}
    lhs = al.evaluate_word(al.word((al.M, 3)), assignment, defs)
    rhs = al.evaluate_word(
        al.wadd(al.word((al.T, 2), (al.T, 1), (al.T, 2)), al.word((al.T, 2))),
        assignment,
        defs,
    )
    assert lhs == rhs


def test_transposition_word_reduces_correctly():
    assert al.transposition_word(1, 2) == al.word((al.T, 1))
    assert al.transposition_word(1, 3) == al.word((al.T, 1), (al.T, 2), (al.T, 1))


def test_identity_assignment_satisfies_symmetric_group_family():
    # The trivial representation of S_k satisfies every braid axiom.
    params = HeckeParams(1, 1, 1, 1, 4)
    catalog = [
        r
        for r in al.relations_short(params)
        if r.family in ("t.involution", "t.braid", "t.commute")
    ]
    ident = perm_matrix([0], 1)
    assignment = {(al.T, i): ident for i in range(1, 4)}
    results = al.check_relations(catalog, assignment, dim=1)
    assert results and all(r.passed for r in results)


def test_check_relations_negative_control():
    # Corrupting a diagonal t entry must break the braid family.
    params = HeckeParams(1, 1, 1, 1, 3)
    module = sn.build_module((3, 2), params, 3)
    assignment = dict(module.operators)
    assignment[(al.T, 1)] = corrupted(assignment[(al.T, 1)], 0, 0, Fraction(1, 7))
    results = al.check_relations(
        al.relations_short(params), assignment, al.definitions(params)
    )
    failing = {r.family for r in results if not r.passed}
    assert "t.braid" in failing


# --- suites on actual modules -----------------------------------------------


def module_assignment(module):
    params = module.params.with_k(module.k)
    return module.operators, al.definitions(params)


def test_short_and_consolidated_suites_agree():
    params = HeckeParams(2, 1, 1, 1, 2)
    for lam in sorted(enum_Pk(params, 2), reverse=True):
        module = sn.build_module(lam, params, 2)
        assignment, defs = module_assignment(module)
        short = al.check_relations(al.relations_short(params), assignment, defs)
        consolidated = al.check_relations(
            al.relations_consolidated(params), assignment, defs
        )
        assert all(r.passed and r.exact for r in short)
        assert all(r.passed and r.exact for r in consolidated)


def test_suites_reject_identically():
    # Corrupt the twist: both suites must notice on the same assignment.
    params = HeckeParams(1, 1, 1, 1, 2)
    module = sn.build_module((2, 2), params, 2)
    assignment, defs = module_assignment(module)
    assignment[(al.W, 1)] = corrupted(assignment[(al.W, 1)], 0, 0, 1)
    short = al.check_relations(al.relations_short(params), assignment, defs)
    consolidated = al.check_relations(
        al.relations_consolidated(params), assignment, defs
    )
    assert not all(r.passed for r in short)
    assert not all(r.passed for r in consolidated)


def test_braid_algebra_quotient_property():
    # Module matrices satisfy the ambient braid-algebra catalog once z_i
    # is realized as w_i plus the scalar shift.
    for abpq, k, lam in [((1, 1, 1, 1), 2, (2, 2)), ((2, 1, 1, 1), 2, (4, 1))]:
        params = HeckeParams(*abpq, k)
        module = sn.build_module(lam, params, k)
        assignment, defs = module_assignment(module)
        results = al.check_relations(al.relations_braid(k), assignment, defs)
        assert results and all(r.passed and r.exact for r in results)


def test_derived_y_definitions_agree():
    # y_i = w_i - x_i + m_i + shift equals the twisted recursion
    # y_i = t y_{i-1} t + t on concrete module matrices.
    params = HeckeParams(2, 2, 2, 1, 3)
    lam = sorted(enum_Pk(params, 3), reverse=True)[2]
    module = sn.build_module(lam, params, 3)
    assignment, defs = module_assignment(module)
    for i in (2, 3):
        direct = al.evaluate_word(al.word((al.Y, i)), assignment, defs)
        twisted = al.evaluate_word(
            al.wadd(
                al.word((al.T, i - 1), (al.Y, i - 1), (al.T, i - 1)),
                al.word((al.T, i - 1)),
            ),
            assignment,
            defs,
        )
        assert direct == twisted
