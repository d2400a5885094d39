import random
from fractions import Fraction

import pytest

from tbh import algebra as al
from tbh import matrices, oracle
from tbh.errors import (
    CapExceeded,
    CommutantFailure,
    HeightExceeded,
    InvariantViolation,
    RelationFailure,
    SpectrumMismatch,
)
from tbh.matrices import Matrix, SparseOperator, apply_to_columns, rank_exact
from tbh.oracle import (
    MAX_BLOCK_DIM,
    MAX_CARRIER_DIM,
    Carrier,
    TensorOracle,
    elementary_action,
    gamma_pair,
    young_image,
)
from tbh.params import HeckeParams
from tbh.partitions import weyl_dim

from reference import (
    all_partitions_of,
    casimir_constant_gl,
    casimir_leq,
    isotypic_multiplicity,
    kappa_V,
    kappa_operator,
    relations_consolidated,
)


def dense(op):
    """The Matrix of a SparseOperator, for Matrix arithmetic in assertions."""
    rows = [[0] * op.dim for _ in range(op.dim)]
    for j, col in enumerate(op.cols):
        for i, v in col.items():
            rows[i][j] = v
    return Matrix(rows)


# --- constants ---------------------------------------------------------------


def test_kappa_V_values():
    assert kappa_V(4) == 4


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
    kappa = kappa_operator(carrier, carrier.legs("M"))
    cols = young_image((2,), 2)
    assert kappa.apply(cols) == [{i: 6 * v for i, v in col.items()} for col in cols]


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
    assert young_image((1,), 3) == [{0: 1}, {1: 1}, {2: 1}]


def test_realize_module_dims():
    assert len(young_image((1, 1), 2)) == 1
    assert len(young_image((2,), 2)) == 3
    assert len(young_image((2, 2), 3)) == 6
    assert len(young_image((2, 1), 3)) == 8


def test_realize_module_caps():
    with pytest.raises(HeightExceeded):
        young_image((1, 1, 1), 2)
    with pytest.raises(CapExceeded):
        young_image((4, 4), 2)


def test_young_columns_match_weyl_dims():
    for n in (2, 3):
        for size in range(1, 5):
            for lam in all_partitions_of(size, n):
                cols = young_image(lam, n)
                assert len(cols) == weyl_dim(lam, n)
                assert all(type(v) is int for col in cols for v in col.values())


YOUNG_TERMS = oracle._young_terms


def _flipped_term(position):
    """_young_terms with the sign of one term flipped."""

    def terms(lam):
        out = YOUNG_TERMS(lam)
        sign, src = out[position]
        out[position] = (-sign, src)
        return out

    return terms


def test_young_image_rejects_too_large_an_image(monkeypatch):
    # -(1 + s) in place of 1 - s: the (1,1) "antisymmetrizer" spans Sym^2,
    # of dimension 3, and is quasi-idempotent there (norm -2).  Only the
    # rank certificate over every column can refuse it.
    assert YOUNG_TERMS((1, 1))[0] == (1, (0, 1))
    monkeypatch.setattr(oracle, "_young_terms", _flipped_term(0))
    with pytest.raises(InvariantViolation, match=r"rank 3, expected 1"):
        young_image((1, 1), 2)


def test_young_image_rejects_a_flipped_symmetrizer_sign(monkeypatch):
    # One of the 16 terms of the (2,2) symmetrizer with the wrong sign: y no
    # longer acts on its image by a scalar.
    monkeypatch.setattr(oracle, "_young_terms", _flipped_term(5))
    with pytest.raises(InvariantViolation, match="not quasi-idempotent"):
        young_image((2, 2), 3)


def test_young_image_rejects_a_rank_below_its_target(monkeypatch):
    monkeypatch.setattr(oracle, "weyl_dim", lambda lam, n: weyl_dim(lam, n) + 1)
    with pytest.raises(InvariantViolation, match=r"rank 6, expected 7"):
        young_image((2, 2), 3)


def test_casimir_acts_by_constant_on_realized_modules():
    for n in (2, 3):
        for size in range(1, 5):
            for lam in all_partitions_of(size, n):
                cols = young_image(lam, n)
                kappa = kappa_operator(Carrier(n, size, 0, 0), range(size))
                const = casimir_constant_gl(lam, n)
                assert kappa.apply(cols) == [{i: const * v for i, v in col.items()} for col in cols]


# --- the oracle proper -------------------------------------------------------------


def test_swap_image():
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
    t1 = oracle.images[(al.T, 1)]
    # the 4x4 swap on the two V factors, tensored over M x N
    index = oracle.carrier.index
    assert len(index) == oracle.carrier.dim == 16
    for word, idx in index.items():
        assert t1.cols[idx] == {index[word[:2] + (word[3], word[2])]: 1}


def test_x1_annihilating_polynomial():
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 1), 2)
    x1 = dense(oracle.images[(al.X, 1)])
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
    assert isotypic_multiplicity(oracle, (2, 1)) == 2
    assert isotypic_multiplicity(oracle, (3,)) == 1
    assert isotypic_multiplicity(oracle, (1, 1, 1)) == 1


def test_commutant_and_transport_small():
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
    oracle.check_commutant()
    results = oracle.check_transport()
    assert all(r.passed for r in results)
    consolidated = oracle.check_transport(relations_consolidated(oracle.params))
    assert all(r.passed for r in consolidated)
    braid = oracle.check_transport(al.relations_braid(2))
    assert all(r.passed for r in braid)


def test_transport_negative_control_gamma_factor():
    # Swapping gamma_{M,1} for gamma_{M,2} in x_1 keeps the operator
    # g-equivariant, so only the relation suite can expose it; the twist
    # relations pairing x_1 with w_0 and w_1 fail.
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
    images = {**oracle.images, (al.X, 1): oracle.gamma("M", 2)}
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


@pytest.mark.parametrize("part", ["numerator", "denominator"])
def test_transport_negative_control_integer_t_image(part):
    # The oracle's generators are integral (den 1, num is cols).  A t_1
    # image with one numerator raised by one, or with den 2, must fail the
    # transported relations.
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
    t1 = oracle.images[(al.T, 1)]
    assert t1.den == 1 and t1.num is t1.cols
    bad = SparseOperator(t1.cols)
    if part == "numerator":
        bad.num = [dict(col) for col in t1.num]
        bad.num[0][0] += 1
    else:
        bad.den = 2
    oracle.images = {**oracle.images, (al.T, 1): bad}
    with pytest.raises(RelationFailure):
        oracle.check_transport()


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
    cols = list(oracle.images[(al.T, 1)].cols)
    assert cols[0] == {0: 1}
    cols[0] = {1: 1}
    oracle.images = {**oracle.images, (al.T, 1): SparseOperator(cols)}
    with pytest.raises(CommutantFailure, match=r"\('t', 1\)"):
        oracle.check_commutant()


def test_factor_difference_negative_control_gamma_entry():
    # x_2, y_2 and z_2 are built from the corrupted gamma_{1,2}, patched in
    # before the images are first read; the right side, the leg swap t_1,
    # is not, so the difference shows.
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
    gamma = oracle.gamma
    bad = _bumped(gamma(1, 2), 0, 0)
    oracle.gamma = lambda fa, fb: bad if (fa, fb) == (1, 2) else gamma(fa, fb)
    with pytest.raises(RelationFailure, match="factor difference at 1"):
        oracle.check_factor_difference()


def test_twist_shift_negative_control_x_entry():
    # The untwisted x_1 is built from the gammas, not read from the images,
    # so a corrupted twisted image no longer differs from it by the shift.
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
    oracle.images = {**oracle.images, (al.X, 1): _bumped(oracle.images[(al.X, 1)], 3, 5)}
    with pytest.raises(RelationFailure, match="x twist shift at 1"):
        oracle.check_twist_shifts()


def test_spectra_negative_control_z_entry():
    # One entry of z_1 raised by one: the annihilating polynomial or a
    # multiplicity of z_1 must fail.
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 1), 2)
    z1 = oracle.images[(al.Z, 1)]
    oracle.images = {**oracle.images, (al.Z, 1): _bumped(z1, 0, 1)}
    with pytest.raises(SpectrumMismatch, match="z_1"):
        oracle.check_spectra()


def test_images_are_read_only_and_shared():
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 2), 2)
    assert oracle.images is oracle.images
    with pytest.raises(TypeError):
        oracle.images[(al.T, 1)] = oracle.gamma(1, 2)
    assert oracle.images[(al.Z, 0)] is oracle.gamma("M", "N")
    assert set(oracle.images) == {
        (al.T, 1), (al.X, 1), (al.X, 2), (al.Y, 1), (al.Y, 2), (al.Z, 1), (al.Z, 2), (al.Z, 0),
        (al.W, 0), (al.W, 1), (al.W, 2),
    }


def test_dimension_bookkeeping():
    for abpq, n, k in [((1, 1, 1, 1), 2, 2), ((1, 1, 1, 1), 3, 1), ((2, 1, 1, 1), 3, 1)]:
        oracle = TensorOracle(HeckeParams(*abpq, k), n)
        assert oracle.check_dimension_bookkeeping() == oracle.module_dim


def test_caps():
    with pytest.raises(CapExceeded):
        TensorOracle(HeckeParams(1, 1, 1, 1, 1), 1)  # p + q > n
    with pytest.raises(CapExceeded):
        TensorOracle(HeckeParams(4, 4, 2, 2, 0), 4)  # rectangle too big
    # carrier 8^5 = 32768 over the carrier cap; its weight spaces are only 120
    assert Carrier(8, 1, 1, 3).largest_weight_space == 120 <= MAX_BLOCK_DIM
    with pytest.raises(CapExceeded, match="carrier dimension 32768"):
        TensorOracle(HeckeParams(1, 1, 1, 1, 3), 8)
    # carrier 2^14 = 16384 passes the carrier cap; a weight space of C(14, 7) does not
    assert Carrier(2, 1, 1, 12).dim <= MAX_CARRIER_DIM
    with pytest.raises(CapExceeded, match="largest weight space 3432"):
        TensorOracle(HeckeParams(1, 1, 1, 1, 12), 2)


def test_largest_weight_space_is_the_even_multinomial():
    # 5, 6 and 7 legs at n = 3: 5!/(2!2!1!), 6!/(2!2!2!), 7!/(3!2!2!)
    assert [Carrier(3, 1, 1, k).largest_weight_space for k in (3, 4, 5)] == [30, 90, 210]
    assert Carrier(2, 1, 1, 0).largest_weight_space == 2
    assert Carrier(3, 0, 0, 0).largest_weight_space == 1


def test_spectra_mismatch_detection():
    # A wrong multiplicity table must be rejected.
    bad = TensorOracle(HeckeParams(1, 1, 1, 1, 0), 2)
    skewed = bad.predicted_spectra()
    skewed[0][Fraction(1)] -= 1
    skewed[0][Fraction(-1)] += 1
    bad.predicted_spectra = lambda: skewed
    with pytest.raises(SpectrumMismatch):
        bad.check_spectra()


def test_spectra_mismatch_detection_across_blocks(monkeypatch):
    # Carrier 243: the z_2 eigenspaces for 2 and -1 each span 45 rank blocks.
    oracle = TensorOracle(HeckeParams(1, 1, 1, 1, 3), 3)
    skewed = oracle.predicted_spectra()
    assert (skewed[2][Fraction(2)], skewed[2][Fraction(-1)]) == (90, 45)
    skewed[2][Fraction(2)] -= 1
    skewed[2][Fraction(-1)] += 1
    oracle.predicted_spectra = lambda: skewed
    blocks = []
    monkeypatch.setattr(matrices, "rank_exact", lambda rows: blocks.append(rows) or rank_exact(rows))
    with pytest.raises(SpectrumMismatch, match="z_2 eigenvalue -1: multiplicity 45, predicted 46"):
        oracle.check_spectra()
    assert len(blocks) > 45


def test_oracle_stages_at_carrier_729_with_a_wider_rectangle():
    oracle = TensorOracle(HeckeParams(2, 1, 1, 1, 3), 3)
    assert (oracle.carrier.dim, oracle.module_dim) == (729, 486)
    assert oracle.check_dimension_bookkeeping() == 486
    assert all(r.passed for r in oracle.check_transport())
    report = oracle.check_spectra()
    assert sum(r["multiplicity"] for r in report) == 4 * 486  # levels 0..3


def test_x1_multiplicities_match_seminormal_blocks_b_zero():
    # (1,2,2,1) has B = 0 and one-parent boxes at shifted content 0; the
    # carrier fixes their x_1 eigenvalue: a, not the c -> 0 limit (a-p)/2.
    from tbh import seminormal as sn
    from tbh.partitions import enum_Pk

    params = HeckeParams(1, 2, 2, 1, 1)
    n = 3
    oracle = TensorOracle(params, n)
    x1 = dense(oracle.images[(al.X, 1)])
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
