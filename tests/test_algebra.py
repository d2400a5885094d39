import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbh import algebra as al
from tbh import seminormal as sn
from tbh.errors import DimensionMismatch, InexactEntry, UnassignedGenerator
from tbh.matrices import Matrix, SparseOperator, identity_columns
from tbh.params import HeckeParams
from tbh.partitions import enum_Pk

from reference import relations_consolidated


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


def test_cached_catalogs_are_immutable():
    # Both catalogs are built once per params and shared by every caller.
    params = HeckeParams(2, 1, 1, 1, 3)
    catalog, defs = al.relations_short(params), al.definitions(params)
    assert al.relations_short(HeckeParams(2, 1, 1, 1, 3)) is catalog
    assert al.definitions(params.with_k(3)) is defs
    with pytest.raises(AttributeError):
        catalog.append(catalog[0])
    with pytest.raises(TypeError):
        catalog[0] = catalog[1]
    with pytest.raises(TypeError):
        defs[(al.X, 2)] = al.word((al.T, 1))
    with pytest.raises(TypeError):
        del defs[(al.X, 2)]


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
        al.evaluate_word(word, {(al.T, 1): [{0: 1}]}, columns=[{0: 0.5}])


def test_operator_keeps_integer_numerators_over_one_denominator():
    op = SparseOperator([{0: Fraction(1, 2), 1: Fraction(4, 2)}, {1: Fraction(-2, 3)}])
    assert op.den == 6 and op.num == [{0: 3, 1: 12}, {1: -4}]
    integral = SparseOperator([{0: Fraction(3, 1)}, {}])
    assert integral.den == 1 and integral.num is integral.cols == [{0: 3}, {}]


def test_rational_input_columns_are_scaled_once():
    op = SparseOperator([{0: Fraction(1, 2)}, {0: 1, 1: 3}])
    image = al.evaluate_word(al.word((al.T, 1)), {(al.T, 1): op}, columns=[{1: Fraction(1, 3)}])
    assert image == [{0: Fraction(1, 3), 1: 1}]


def test_check_relations_reads_the_denominator():
    # t and 2t have the same numerator columns once reduced ({0: 1}), over
    # the denominators 2 and 1: only the denominator tells them apart.
    t = SparseOperator([{0: Fraction(1, 2)}])
    rel = al.RelationPair("t = 2t", "test", al.word((al.T, 1)), al.word((al.T, 1), coeff=2))
    (result,) = al.check_relations([rel], {(al.T, 1): t})
    assert not result.passed and result.max_deviation == 0.5


# --- property test: integer evaluation against dense products -----------------

_DENOMINATORS = (1, 2, 3, 6, 7)
_ASSIGNED = [(al.T, 1), (al.T, 2), (al.X, 1)]
_DEFINED = (al.Y, 1)


def _rationals(nonzero=False):
    nums = st.integers(-6, 6).filter(bool) if nonzero else st.integers(-6, 6)
    return st.builds(Fraction, nums, st.sampled_from(_DENOMINATORS))


def _sparse_operators(n):
    column = st.dictionaries(st.integers(0, n - 1), _rationals(), max_size=n)
    return st.lists(column, min_size=n, max_size=n).map(SparseOperator)


def _words(gens):
    term = st.tuples(_rationals(nonzero=True), st.lists(st.sampled_from(gens), max_size=4))
    return st.lists(term, min_size=1, max_size=3).map(
        lambda terms: tuple((c, tuple(fs)) for c, fs in terms)
    )


def _dense(op):
    n = op.dim
    return Matrix([[op.cols[j].get(i, 0) for j in range(n)] for i in range(n)])


def _dense_word(w, mats, n):
    total = Matrix.diagonal([0] * n)
    for coeff, factors in w:
        prod = Matrix.identity(n)
        for g in factors:
            prod = prod * mats[g]
        total = total + coeff * prod
    return total


def _inline(w, defs):
    """w with every defined generator replaced by its definition word."""
    terms = []
    for coeff, factors in w:
        pieces = [defs[g] if g in defs else al.word(g) for g in factors]
        terms.append(al.wscale(coeff, al.wmul(*pieces)))
    return al.wadd(*terms)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.sampled_from([3, 4]),
    definition=_words(_ASSIGNED),
    w=_words(_ASSIGNED + [_DEFINED]),
)
def test_integer_evaluation_matches_dense_products(data, n, definition, w):
    ops = {g: data.draw(_sparse_operators(n)) for g in _ASSIGNED}
    defs = {_DEFINED: definition}
    mats = {g: _dense(op) for g, op in ops.items()}
    mats[_DEFINED] = _dense_word(definition, mats, n)
    want = _dense_word(w, mats, n)
    image = al.evaluate_word(w, ops, defs)
    assert image == [{i: v for i, v in enumerate(col) if v} for col in zip(*want.rows)]

    # Another word with the same matrix, through other denominators: the
    # definition inlined, doubled, minus the word itself.
    twin = al.wadd(al.wscale(2, _inline(w, defs)), al.wneg(w))
    ops, block = al._prepare(ops, None, None)
    evaluate = al._word_evaluator(ops, defs)
    pair = evaluate(w, block)
    assert evaluate(twin, block) == pair
    cols, den = pair
    assert den > 0 and math.gcd(den, *(v for col in cols for v in col.values())) == 1


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
            relations_consolidated(params), assignment, defs
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
        relations_consolidated(params), assignment, defs
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
