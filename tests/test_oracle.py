import random
from fractions import Fraction

import pytest

from tbh import algebra as al
from tbh.errors import CapExceeded, CommutantFailure, HeightExceeded, RelationFailure, SpectrumMismatch
from tbh.matrices import Matrix, SparseOperator, apply_to_columns, rank_exact
from tbh.oracle import (
    Carrier,
    TensorOracle,
    casimir_constant_gl,
    casimir_leq,
    default_cz,
    elementary_action,
    gamma_pair,
    kappa_V,
    kappa_operator,
    realize_module,
    twist_constants,
    young_image_columns,
)
from tbh.params import HeckeParams
from tbh.partitions import all_partitions_of, weyl_dim


def dense(op):
    """The Matrix of a SparseOperator, for Matrix arithmetic in assertions."""
    rows = [[0] * op.dim for _ in range(op.dim)]
    for j, col in enumerate(op.cols):
        for i, v in col.items():
            rows[i][j] = v
    return Matrix(rows)


# --- constants ---------------------------------------------------------------


def test_twist_constants_gl():
    consts = twist_constants(HeckeParams(2, 1, 2, 1), 4)
    assert consts == {"c_x": Fraction(-2), "c_y": Fraction(-2), "d": Fraction(0)}


def test_twist_constants_sl():
    params = HeckeParams(2, 1, 2, 1, algebra="sl")
    consts = twist_constants(params, 3)
    half = (Fraction(3) - Fraction(1, 3)) / 2
    assert consts["c_x"] == Fraction(4, 3) - half
    assert consts["c_y"] == Fraction(1, 3) - half
    assert consts["d"] == Fraction(1, 3)


def test_default_cz():
    assert default_cz(HeckeParams(2, 1, 2, 1), 5) == 0
    assert default_cz(HeckeParams(2, 1, 2, 1, algebra="sl"), 5) == Fraction(4, 5)


def test_kappa_V_values():
    assert kappa_V(4) == 4
    assert kappa_V(3, "sl") == Fraction(8, 3)


def test_casimir_constant_examples():
    assert casimir_constant_gl((1,), 2) == 2
    assert casimir_constant_gl((2,), 2) == 6
    assert casimir_constant_gl((1, 1), 2) == 2


# --- gamma and kappa operators --------------------------------------------------


def test_gamma_on_two_vectors_n2():
    carrier = Carrier(2, 1, 1, 0)
    g = dense(gamma_pair(carrier, "M", "N"))
    # gamma acts by 1 on the symmetric square and -1 on the alternating part
    assert g.trace() == 2
    rows = [
        [g.rows[i][j] - (1 if i == j else 0) for j in range(4)] for i in range(4)
    ]
    assert rank_exact(rows) == 1  # eigenvalue 1 has multiplicity 3
    rows = [
        [g.rows[i][j] + (1 if i == j else 0) for j in range(4)] for i in range(4)
    ]
    assert rank_exact(rows) == 3  # eigenvalue -1 has multiplicity 1


def test_gamma_is_symmetric_in_its_factors():
    carrier = Carrier(2, 2, 1, 1)
    assert gamma_pair(carrier, "M", "N").cols == gamma_pair(carrier, "N", "M").cols
    assert gamma_pair(carrier, "M", 1).cols == gamma_pair(carrier, 1, "M").cols


def test_kappa_leq_zero_is_kappa():
    carrier = Carrier(2, 2, 1, 1)
    assert casimir_leq(carrier, "M", 0).cols == kappa_operator(carrier, carrier.legs("M")).cols


def test_factor_out_of_range():
    from tbh.errors import FactorOutOfRange

    carrier = Carrier(2, 1, 1, 1)
    with pytest.raises(FactorOutOfRange):
        casimir_leq(carrier, "M", 2)
    with pytest.raises(FactorOutOfRange):
        carrier.legs(5)
    with pytest.raises(FactorOutOfRange):
        gamma_pair(carrier, "M", "M")


def test_kappa_V_operator():
    carrier = Carrier(3, 1, 1, 1)
    assert dense(kappa_operator(carrier, carrier.legs(1))) == Matrix.identity(27) * 3


def test_kappa_on_symmetric_square_is_six():
    # kappa acts by 6 on the L((2)) component of V x V for gl_2.
    carrier = Carrier(2, 2, 0, 0)
    kappa = dense(kappa_operator(carrier, carrier.legs("M")))
    cols = realize_module((2,), 2).columns
    for col in cols:
        image = [sum(kappa.rows[i][j] * col[j] for j in range(4)) for i in range(4)]
        assert image == [6 * v for v in col]


def test_kappa_leq_matches_direct_inclusion():
    # The iterated coproduct assembly equals kappa on the union of legs.
    carrier = Carrier(2, 1, 1, 2)
    for j in (1, 2):
        via_formula = casimir_leq(carrier, "MN", j)
        direct = kappa_operator(
            carrier, carrier.legs("MN") + tuple(carrier.legs(i)[0] for i in range(1, j + 1))
        )
        assert via_formula.cols == direct.cols


def test_bracket_relations_on_carrier():
    # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj on random triples.
    carrier = Carrier(2, 1, 1, 1)
    legs = tuple(range(carrier.total_legs))
    rng = random.Random(11)
    ops = {
        (i, j): dense(elementary_action(carrier, i, j, legs))
        for i in range(2)
        for j in range(2)
    }
    zero = Matrix.identity(carrier.dim) * 0
    for _ in range(8):
        i, j, k, l = (rng.randrange(2) for _ in range(4))
        bracket = ops[(i, j)] * ops[(k, l)] - ops[(k, l)] * ops[(i, j)]
        expected = zero
        if j == k:
            expected = expected + ops[(i, l)]
        if l == i:
            expected = expected - ops[(k, j)]
        assert bracket == expected


# --- highest weight realizations -------------------------------------------------


def test_realize_module_single_box_is_identity():
    real = realize_module((1,), 3)
    assert real.dim == 3
    assert sorted(real.columns) == sorted(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    )


def test_realize_module_dims():
    assert realize_module((1, 1), 2).dim == 1
    assert realize_module((2,), 2).dim == 3
    assert realize_module((2, 2), 3).dim == 6
    assert realize_module((2, 1), 3).dim == 8


def test_realize_module_caps():
    with pytest.raises(HeightExceeded):
        realize_module((1, 1, 1), 2)
    with pytest.raises(CapExceeded):
        realize_module((4, 4), 2)


def test_young_columns_match_weyl_dims():
    for n in (2, 3):
        for size in range(1, 5):
            for lam in all_partitions_of(size, n):
                cols, _, _ = young_image_columns(lam, n)
                assert len(cols) == weyl_dim(lam, n)


def test_casimir_acts_by_constant_on_realized_modules():
    for n in (2, 3):
        for size in range(1, 5):
            for lam in all_partitions_of(size, n):
                real = realize_module(lam, n)
                carrier = Carrier(n, size, 0, 0)
                kappa = dense(kappa_operator(carrier, range(size)))
                const = casimir_constant_gl(lam, n)
                for col in real.columns:
                    image = [
                        sum(kappa.rows[i][j] * col[j] for j in range(carrier.dim))
                        for i in range(carrier.dim)
                    ]
                    assert image == [const * v for v in col]


# --- the oracle proper -------------------------------------------------------------


def test_swap_image():
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
    t1 = dense(oracle.t_image(1))
    # the 4x4 swap on the two V factors, tensored over M x N
    for idx in range(oracle.carrier.dim):
        digits = list(oracle.carrier.decode(idx))
        digits[2], digits[3] = digits[3], digits[2]
        swapped = oracle.carrier.encode(digits)
        col = [t1.rows[r][idx] for r in range(oracle.carrier.dim)]
        assert col[swapped] == 1 and sum(map(abs, col)) == 1


def test_x1_annihilating_polynomial():
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 1), 2)
    x1 = dense(oracle.x_image(1))
    ident = Matrix.identity(oracle.carrier.dim)
    assert (x1 - ident) * (x1 + ident) == ident * 0


def test_z0_spectrum_k0():
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 0), 2)
    report = oracle.check_spectra()
    assert {(r["eigenvalue"], r["multiplicity"]) for r in report} == {
        ("1", 3),
        ("-1", 1),
    }


def test_z1_spectrum_example():
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 1), 2)
    preds = oracle.predicted_spectra()
    assert preds[1] == {2: 4, -1: 2, 1: 2}
    oracle.check_spectra()


def test_isotypic_multiplicities_match_path_counts():
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 1), 3)
    assert oracle.isotypic_multiplicity((2, 1)) == 2
    assert oracle.isotypic_multiplicity((3,)) == 1
    assert oracle.isotypic_multiplicity((1, 1, 1)) == 1


def test_commutant_and_transport_small():
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
    oracle.check_commutant()
    results = oracle.check_transport()
    assert all(r.passed for r in results)
    consolidated = oracle.check_transport(al.relations_consolidated(oracle.params))
    assert all(r.passed for r in consolidated)
    braid = oracle.check_transport(al.relations_braid(2))
    assert all(r.passed for r in braid)


def test_transport_negative_control_gamma_factor():
    # Swapping gamma_{M,1} for gamma_{M,2} in x_1 keeps the operator
    # g-equivariant, so only the relation suite can expose it; the twist
    # relations pairing x_1 with w_0 and w_1 fail.
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
    images = oracle.phi_images()
    images[(al.X, 1)] = oracle.gamma("M", 2)
    defs = al.definitions(oracle.params)
    failing = set()
    for rel in al.relations_short(oracle.params):
        lhs = oracle.evaluate_on_inclusion(rel.lhs, images, defs)
        rhs = oracle.evaluate_on_inclusion(rel.rhs, images, defs)
        if lhs != rhs:
            failing.add(rel.family)
    assert failing == {"commute.xw", "twist.xw0", "twist.xw1"}
    # ... while the corrupted operator still commutes with the action
    legs = tuple(range(oracle.carrier.total_legs))
    bad = dense(oracle.gamma("M", 2))
    for i in range(2):
        for j in range(2):
            action = dense(elementary_action(oracle.carrier, i, j, legs))
            assert bad * action == action * bad


def test_twist_shift_and_factor_difference():
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
    assert oracle.check_twist_shifts() == 2
    assert oracle.check_factor_difference() == 1


def _bumped(op, j, row):
    """A copy of op with entry (row, j) raised by one."""
    cols = [dict(col) for col in op.cols]
    cols[j][row] = cols[j].get(row, 0) + 1
    return SparseOperator(cols)


def test_commutant_negative_control_moved_t_column():
    # t_1 with basis column 0 sent to e_1 instead of e_0 is no longer
    # g-equivariant: E_00 sees a different weight on the two sides.
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
    cols = list(oracle.t_image(1).cols)
    assert cols[0] == {0: 1}
    cols[0] = {1: 1}
    moved = SparseOperator(cols)
    oracle.t_image = lambda i: moved
    with pytest.raises(CommutantFailure, match=r"\('t', 1\)"):
        oracle.check_commutant()


def test_factor_difference_negative_control_gamma_entry():
    # x_2, y_2 and z_2 are built from the corrupted gamma_{1,2}; the right
    # side, the leg swap t_1, is not, so the difference shows.
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
    gamma = oracle.gamma
    bad = _bumped(gamma(1, 2), 0, 0)
    oracle.gamma = lambda fa, fb: bad if (fa, fb) == (1, 2) else gamma(fa, fb)
    with pytest.raises(RelationFailure, match="factor difference at 1"):
        oracle.check_factor_difference()


def test_twist_shift_negative_control_x_entry():
    # The untwisted x_1 is built from the gammas, not from x_image, so a
    # corrupted twisted image no longer differs from it by the scalar shift.
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
    x_image = oracle.x_image
    bad = _bumped(x_image(1), 3, 5)
    oracle.x_image = lambda i: bad if i == 1 else x_image(i)
    with pytest.raises(RelationFailure, match="x twist shift at 1"):
        oracle.check_twist_shifts()


def test_dimension_bookkeeping():
    for abpq, n, k in [((1, 1, 1, 1), 2, 2), ((1, 1, 1, 1), 3, 1), ((2, 1, 1, 1), 3, 1)]:
        oracle = TensorOracle(HeckeParams(*abpq, k), n)
        assert oracle.check_dimension_bookkeeping() == oracle.module_dim


def test_caps():
    with pytest.raises(CapExceeded):
        TensorOracle(HeckeParams(1, 1, 1, 1, 1), 1)  # p + q > n
    with pytest.raises(CapExceeded):
        TensorOracle(HeckeParams(4, 4, 2, 2, 0), 4)  # rectangle too big
    with pytest.raises(CapExceeded):
        TensorOracle(HeckeParams(1, 1, 1, 1, 2, algebra="sl"), 3)


def test_spectra_mismatch_detection():
    # c_z is a free parameter: shifting it moves operator and prediction
    # together, so the check still passes.
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 1), 2, c_z=Fraction(1, 3))
    oracle.check_spectra()
    # A genuinely wrong multiplicity table must be rejected.
    bad = TensorOracle(HeckeParams(1, 1, 1, 1, 0), 2)
    skewed = bad.predicted_spectra()
    skewed[0][Fraction(1)] -= 1
    skewed[0][Fraction(-1)] += 1
    bad.predicted_spectra = lambda: skewed
    with pytest.raises(SpectrumMismatch):
        bad.check_spectra()


def test_x1_multiplicities_match_seminormal_blocks_b_zero():
    # (1,2,2,1) has B = 0 and one-parent boxes at shifted content 0; the
    # carrier fixes their x_1 eigenvalue: a, not the c -> 0 limit (a-p)/2.
    from tbh import seminormal as sn
    from tbh.partitions import enum_Pk

    params = HeckeParams(1, 2, 2, 1, 1)
    n = 3
    oracle = TensorOracle(params, n)
    x1 = dense(oracle.x_image(1))
    predicted = {params.a: 0, -params.p: 0}
    for lam in enum_Pk(params, 1, max_height=n):
        table = sn.entry_table(lam, params, 1)
        for ti in range(len(table.basis)):
            weight = weyl_dim(lam, n)
            if table.neighbor_s[ti][0] is None:
                predicted[table.diag_x[ti]] += weight
            else:  # a 2x2 block with eigenvalues a and -p, counted from each side
                predicted[params.a] += Fraction(weight, 2)
                predicted[-params.p] += Fraction(weight, 2)
    ident = Matrix.identity(oracle.carrier.dim)
    inclusion = [[col.get(r, 0) for r in range(oracle.carrier.dim)] for col in oracle.inclusion_columns]
    for value, mult in predicted.items():
        image = apply_to_columns(x1 - ident * value, inclusion)
        assert oracle.module_dim - rank_exact([list(row) for row in zip(*image)]) == mult
