from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbh.bratteli import build_diagram, paths_to
from tbh.errors import NotInP, NotInPk
from tbh.params import HeckeParams
from tbh.partitions import (
    Tableau,
    add_box_set,
    as_partition,
    content,
    enum_P,
    enum_Pk,
    gamma_rect,
    is_in_P,
    lex_max_parent_in,
    parents,
    row_tableau_of,
    t_lambda,
    tableaux_to,
    weyl_dim,
)

from reference import (
    all_partitions_of,
    apply_s0,
    apply_si,
    box,
    critical_contents,
    enum_P_size,
    from_content_list,
    shifted_content,
)

small_params = st.tuples(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)
).map(lambda t: HeckeParams(*t))


# --- contents ---------------------------------------------------------------


def test_content_examples():
    assert content(1, 1) == 0
    assert content(2, 3) == 1
    p, q = 3, 2
    assert content(p + q, 1) == 1 - p - q


# --- the rectangle family P -------------------------------------------------


def brute_force_P(params):
    """Independent oracle: filter all partitions of ap + bq by the raw rules."""
    return {
        lam
        for lam in all_partitions_of(params.weight, params.p + params.q)
        if is_in_P(lam, params)
    }


def test_enum_P_1111():
    params = HeckeParams(1, 1, 1, 1)
    assert enum_P(params) == {(2,), (1, 1)}
    assert enum_P(params) == brute_force_P(params)


def test_enum_P_3222():
    params = HeckeParams(3, 2, 2, 2)
    members = enum_P(params)
    assert len(members) == 6
    assert (5, 5) in members and (3, 3, 2, 2) in members
    assert members == brute_force_P(params)


def test_enum_P_b2q2_has_six_members():
    params = HeckeParams(4, 2, 4, 2)
    assert len(enum_P(params)) == 6 == enum_P_size(params)


@given(small_params)
@settings(max_examples=40, deadline=None)
def test_enum_P_matches_brute_force_and_count(params):
    members = enum_P(params)
    assert members == brute_force_P(params)
    assert len(members) == comb(min(params.a, params.b) + params.q, params.q)


def test_gamma_rect_examples():
    params = HeckeParams(1, 1, 1, 1)
    assert gamma_rect((2,), params) == 1
    assert gamma_rect((1, 1), params) == -1
    with pytest.raises(NotInP):
        gamma_rect((2, 1), params)


def test_gamma_rect_against_casimir_oracle():
    # gamma = (kappa_lambda - kappa_M - kappa_N)/2 with the gl_n constant
    # <lam, lam + 2 delta> - (n-1)|lam|; independent of n >= p+q.
    def kappa(lam, n):
        get = lambda i: lam[i - 1] if i <= len(lam) else 0
        return sum(get(i) * (get(i) + 2 * (n - i)) for i in range(1, n + 1)) - (
            n - 1
        ) * sum(lam)

    for a, b, p, q in [(1, 1, 1, 1), (2, 1, 1, 1), (3, 2, 2, 2), (4, 2, 4, 2)]:
        params = HeckeParams(a, b, p, q)
        n = p + q + 1
        km = kappa((a,) * p, n)
        kn = kappa((b,) * q, n)
        for lam in enum_P(params):
            assert gamma_rect(lam, params) == Fraction(kappa(lam, n) - km - kn, 2)


def test_gamma_rect_top_vertex_is_abq():
    for a, b, p, q in [(1, 1, 1, 1), (3, 2, 2, 2), (4, 2, 4, 2)]:
        params = HeckeParams(a, b, p, q)
        top = tuple(
            a + b if i <= q else a for i in range(1, p + 1)
        )  # (a^p) + (b^q) stacked
        assert gamma_rect(top, params) == a * b * q


def test_gamma_rect_4242_label_set():
    params = HeckeParams(4, 2, 4, 2)
    labels = {gamma_rect(lam, params) for lam in enum_P(params)}
    assert labels == {16, 8, 2, -2, -8, -16}


# --- box moves ----------------------------------------------------------------


def test_add_box_set_examples():
    assert add_box_set((2,)) == {(3,), (2, 1)}
    assert add_box_set(()) == {(1,)}
    assert add_box_set((2, 1)) == {(3, 1), (2, 2), (2, 1, 1)}
    assert add_box_set((2,), max_height=1) == {(3,)}


def test_enum_Pk_examples():
    params = HeckeParams(1, 1, 1, 1)
    assert enum_Pk(params, 1) == {(3,), (2, 1), (1, 1, 1)}
    assert enum_Pk(params, 0) == enum_P(params)
    # generic b=q=2 instance: one-box extensions of the six base shapes
    params42 = HeckeParams(4, 2, 4, 2)
    level1 = enum_Pk(params42, 1)
    assert len(level1) == 18
    one_parent = [mu for mu in level1 if len(parents(mu, params42)) == 1]
    assert len(one_parent) == 12


def test_parents_examples():
    params = HeckeParams(1, 1, 1, 1)
    assert parents((3,), params) == [(2,)]
    assert parents((2, 1), params) == [(2,), (1, 1)]
    assert parents((1, 1, 1), params) == [(1, 1)]


@given(small_params)
@settings(max_examples=30, deadline=None)
def test_parent_dichotomy(params):
    critical = critical_contents(params)
    for mu in enum_Pk(params, 1):
        found = []
        for lam in enum_P(params):
            diff = [
                (r + 1, c + 1)
                for r in range(len(mu))
                for c in range(mu[r])
                if not (r < len(lam) and c < lam[r])
            ]
            if len(diff) == 1 and sum(lam) + 1 == sum(mu):
                inside = all(
                    (lam[i] if i < len(lam) else 0) <= mu[i] for i in range(len(lam))
                )
                if inside:
                    found.append((content(*diff[0]), lam))
        found.sort()
        got = parents(mu, params)
        assert got == [lam for _, lam in found]
        contents = [c for c, _ in found]
        if len(found) == 1:
            assert contents[0] in critical
        else:
            assert len(found) == 2
            assert contents[0] not in critical and contents[1] not in critical
            assert sum(contents) == params.a - params.p + params.b - params.q


# --- tableaux -----------------------------------------------------------------


def test_shifted_content_examples():
    params = HeckeParams(1, 1, 1, 1)
    t = Tableau(((2,), (2, 1)))
    assert shifted_content(t, 1, params) == -1
    t2 = Tableau(((1, 1),))
    assert shifted_content(t2, 0, params) == -1  # equals gamma, shift is 0
    params42 = HeckeParams(4, 2, 4, 2)
    top = Tableau(((6, 6, 4, 4),))
    assert shifted_content(top, 0, params42) == 16


def test_shifted_content_zero_matches_gamma_formula():
    # c_T(0) = abq - (|B| + 1/2)(a-p+b-q) + 2 sum of contents below row p
    for abpq in [(2, 1, 1, 1), (3, 2, 2, 2)]:
        params = HeckeParams(*abpq)
        a, b, p, q = params.a, params.b, params.p, params.q
        for lam in enum_P(params):
            below = [
                content(r + 1, c + 1)
                for r in range(len(lam))
                for c in range(lam[r])
                if r + 1 > p
            ]
            direct = (
                Fraction(a * b * q)
                - (len(below) + Fraction(1, 2)) * (a - p + b - q)
                + 2 * sum(below)
            )
            assert shifted_content(Tableau((lam,)), 0, params) == direct


def test_apply_si_examples():
    params = HeckeParams(1, 1, 1, 1)
    adjacent = Tableau(((2,), (3,), (4,)))  # boxes side by side in a row
    assert apply_si(adjacent, 1, params) is None
    t = Tableau(((2,), (3,), (3, 1)))
    assert apply_si(t, 1, params) == Tableau(((2,), (2, 1), (3, 1)))


def test_apply_s0_examples():
    params = HeckeParams(1, 1, 1, 1)
    t = Tableau(((2,), (2, 1)))
    assert apply_s0(t, params) == Tableau(((1, 1), (2, 1)))
    single = Tableau(((2,), (3,)))  # content 2 = a+b is critical
    assert apply_s0(single, params) is None


@given(small_params, st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_moves_are_involutive_and_swap_contents(params, k):
    def contents(t):
        return tuple(shifted_content(t, i, params) for i in range(t.k + 1))

    for lam in sorted(enum_Pk(params, k), reverse=True)[:4]:
        for t in tableaux_to(lam, k, params):
            base = contents(t)
            for i in range(1, k):
                s = apply_si(t, i, params)
                if s is None:
                    assert abs(base[i + 1] - base[i]) == 1
                    continue
                assert apply_si(s, i, params) == t
                swapped = contents(s)
                assert swapped[i] == base[i + 1] and swapped[i + 1] == base[i]
                others = [j for j in range(k + 1) if j not in (i, i + 1)]
                assert all(swapped[j] == base[j] for j in others)
            if k >= 1:
                s0 = apply_s0(t, params)
                if s0 is None:
                    assert base[1] in params.critical_shifted_contents()
                else:
                    assert apply_s0(s0, params) == t
                    flipped = contents(s0)
                    assert flipped[1] == -base[1]
                    assert flipped[2:] == base[2:]


@given(small_params, st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_content_list_reconstruction(params, k):
    for lam in sorted(enum_Pk(params, k), reverse=True)[:4]:
        for t in tableaux_to(lam, k, params):
            clist = [shifted_content(t, i, params) for i in range(1, k + 1)]
            assert from_content_list(clist, lam, params) == t


@pytest.mark.parametrize(
    "abpq,k", [((1, 1, 1, 1), 3), ((1, 2, 2, 1), 3), ((2, 2, 2, 2), 4), ((4, 2, 3, 2), 2)]
)
def test_basis_order_is_shifted_content_order(abpq, k):
    # Both enumerations sort by integer contents; the basis order is the
    # order of the shifted content lists (c_T(1), ..., c_T(k)).
    params = HeckeParams(*abpq)
    diagram = build_diagram(params.with_k(k))
    for lam in sorted(enum_Pk(params, k), reverse=True):
        tabs = tableaux_to(lam, k, params)
        key = lambda t: [shifted_content(t, i, params) for i in range(1, k + 1)]
        assert tabs == sorted(tabs, key=key)
        assert len({tuple(key(t)) for t in tabs}) == len(tabs)
        assert list(paths_to(diagram, lam, k + 1).paths) == tabs


def test_tableaux_to_errors():
    params = HeckeParams(1, 1, 1, 1)
    with pytest.raises(NotInPk):
        tableaux_to((5,), 1, params)
    with pytest.raises(NotInPk):
        t_lambda((5,), params, 1)


# --- row tableaux and the distinguished tableau -------------------------------


def test_row_tableau_idempotent():
    params = HeckeParams(2, 2, 2, 2)
    for lam in sorted(enum_Pk(params, 2), reverse=True)[:3]:
        for t in tableaux_to(lam, 2, params):
            row = row_tableau_of(t.start, t.end)
            assert row_tableau_of(row.start, row.end) == row


def test_worked_example_row_and_distinguished():
    # Rectangles (4^3) and (2^2); start (5,4,4,2,1), end (7,4,4,3,3).
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
    def filling(t):
        return {box(t, i): i for i in range(1, t.k + 1)}

    assert filling(t) == {(4, 3): 1, (5, 2): 2, (1, 6): 3, (1, 7): 4, (5, 3): 5}
    rt = row_tableau_of(t.start, t.end)
    assert filling(rt) == {(1, 6): 1, (1, 7): 2, (4, 3): 3, (5, 2): 4, (5, 3): 5}
    dist = t_lambda((7, 4, 4, 3, 3), params, 5)
    assert dist.start == (6, 4, 4, 2)
    assert lex_max_parent_in((7, 4, 4, 3, 3), params) == (6, 4, 4, 2)


def test_weyl_dim():
    assert weyl_dim((1,), 5) == 5
    assert weyl_dim((1, 1), 2) == 1
    assert weyl_dim((2,), 2) == 3
    assert weyl_dim((2, 1), 2) == 2
    assert weyl_dim((3,), 2) == 4
    assert weyl_dim((2, 2), 3) == 6
    assert weyl_dim((1, 1, 1), 2) == 0


def test_params_normalization():
    params = HeckeParams(2, 3, 1, 2)  # q > p: rectangles swap
    assert (params.a, params.b, params.p, params.q) == (3, 2, 2, 1)
    assert params.normalized
    params2 = HeckeParams(1, 2, 2, 2)  # p == q needs a >= b
    assert (params2.a, params2.b) == (2, 1)


def test_normalized_params_equal_their_normal_form():
    # The notice flag is not part of the value.
    swapped, plain = HeckeParams(1, 2, 1, 1, 2), HeckeParams(2, 1, 1, 1, 2)
    assert swapped.normalized and not plain.normalized
    assert swapped == plain and hash(swapped) == hash(plain)
    assert len({swapped, plain}) == 1


def test_as_partition_validation():
    assert as_partition((3, 1, 0, 0)) == (3, 1)
    with pytest.raises(ValueError):
        as_partition((1, 2))


def _as_partition_reference(parts):
    # The per-element generator form that as_partition replaced.
    parts = tuple(int(x) for x in parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if any(x < 0 for x in parts):
        raise ValueError(f"negative part in {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    return parts


def _outcome(fn, parts):
    try:
        return ("value", fn(parts))
    except ValueError as err:
        return ("error", str(err))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(-3, 6), max_size=7),
        st.lists(st.integers(0, 6), max_size=7).map(lambda xs: sorted(xs, reverse=True) + [0, 0]),
        st.lists(st.integers(0, 6), max_size=7).map(sorted),
    ).map(tuple)
)
def test_as_partition_matches_generator_form(parts):
    # Zeros, negatives and increasing pairs: same value, same error message.
    assert _outcome(as_partition, parts) == _outcome(_as_partition_reference, parts)


def test_tableau_rejects_two_box_step():
    with pytest.raises(ValueError, match="one box"):
        Tableau(((2, 1), (3, 2)))


def test_tableau_rejects_taller_earlier_shape():
    # One box more, but (1,1,1) has a third row that (3,1) lacks.
    with pytest.raises(ValueError, match="nested"):
        Tableau(((1, 1, 1), (3, 1)))
    assert Tableau(((2, 1), (3, 1))).shapes == ((2, 1), (3, 1))
