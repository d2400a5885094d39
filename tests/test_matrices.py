import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbh.errors import DimensionMismatch, InexactEntry
from tbh.matrices import Matrix, independent_columns, rank_exact

from reference import reference_independent_columns, reference_rank


def test_identity_is_neutral():
    a = Matrix([[1, 2], [3, 4]])
    assert Matrix.identity(2) * a == a
    assert a * Matrix.identity(2) == a


def test_mat_eq_reflexive_and_exact():
    a = Matrix([[Fraction(1, 3), 0], [0, 1]])
    assert a.equal(a)
    b = Matrix([[Fraction(1, 3) + Fraction(1, 10**12), 0], [0, 1]])
    assert not a.equal(b)  # exact comparison for rational entries


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3, 4]]) * Matrix([[1]])
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2]])


def test_scalar_multiplication_keeps_exactness():
    a = Matrix([[1, 2], [3, 4]])
    b = a * Fraction(2)
    assert b.rows[0][0] == 2 and isinstance(b.rows[0][0], int)


def test_rank_exact_against_reference():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 7)
        m = rng.randint(1, 7)
        r = rng.randint(0, min(n, m))
        if r == 0:
            prod = [[0] * m for _ in range(n)]
        else:
            a = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
            b = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
            prod = [
                [sum(a[i][t] * b[t][j] for t in range(r)) for j in range(m)]
                for i in range(n)
            ]
        assert rank_exact(prod) == reference_rank(prod)


def test_rank_exact_fraction_rows():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]]
    assert rank_exact(rows) == 2
    rows = [[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]]
    assert rank_exact(rows) == 1


@st.composite
def block_sparse_columns(draw):
    """Sparse columns of a block-diagonal matrix of low-rank blocks, shuffled.

    Each block is a product of random integer factors, so it is often rank
    deficient; columns may be scaled by Fractions, carry explicit zeros, or
    be empty, and row keys may be tuples.
    """
    entries = st.integers(-3, 3)
    fractions, tuple_keys, explicit_zeros = (draw(st.booleans()) for _ in range(3))
    columns = []
    nrows_total = 0
    for _ in range(draw(st.integers(0, 4))):
        nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        r = draw(st.integers(1, min(nrows, ncols)))
        a = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=nrows, max_size=nrows))
        b = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=r, max_size=r))
        for j in range(ncols):
            scale = Fraction(1, draw(st.integers(1, 5))) if fractions else 1
            col = {}
            for i in range(nrows):
                v = sum(a[i][t] * b[t][j] for t in range(r)) * scale
                if v or explicit_zeros:
                    col[nrows_total + i] = v
            columns.append(col)
        nrows_total += nrows
    columns += [{}] * draw(st.integers(0, 2))
    relabel = draw(st.permutations(range(nrows_total)))
    key = (lambda i: (relabel[i] % 2, relabel[i])) if tuple_keys else (lambda i: relabel[i])
    order = draw(st.permutations(range(len(columns))))
    return [{key(i): v for i, v in columns[j].items()} for j in order]


@st.composite
def sparse_columns(draw):
    """Random sparse columns over a few rows, int or Fraction entries, often dependent.

    A column is a random sparse vector or a small combination of earlier
    columns, so that both kept and dependent columns occur.
    """
    entries = st.integers(-3, 3)
    if draw(st.booleans()):
        entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    nrows = draw(st.integers(1, 6))
    columns = []
    for _ in range(draw(st.integers(0, 8))):
        if columns and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3))
            coeffs = draw(st.lists(entries, min_size=len(picks), max_size=len(picks)))
            col = {}
            for c, pick in zip(coeffs, picks):
                for r, v in pick.items():
                    col[r] = col.get(r, 0) + c * v
        else:
            rows = draw(st.lists(st.integers(0, nrows - 1), max_size=nrows, unique=True))
            col = {r: draw(entries) for r in rows}
        columns.append(col)
    return columns


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_columns(), block_sparse_columns()))
def test_independent_columns_matches_a_dense_reference(columns):
    # The kept indices are exactly the columns that raise the dense Fraction
    # rank of the ones before them; their number is the rank.
    kept = independent_columns(columns)
    assert list(kept) == reference_independent_columns(columns)
    rows = list(dict.fromkeys(r for col in columns for r in col))
    assert len(kept) == reference_rank([[col.get(r, 0) for col in columns] for r in rows])
    assert len(set(kept.values())) == len(kept)  # one pivot row per kept column


def test_independent_columns_examples():
    assert independent_columns([]) == {}
    assert independent_columns([{}, {0: 0}]) == {}
    # proportional columns with string row keys: only the first is kept, under row "a"
    assert independent_columns([{"a": 2, "b": 4}, {}, {"a": 1, "b": 2}]) == {0: "a"}
    # tuple row keys and a Fraction entry: disjoint supports, both kept
    assert independent_columns([{(0, 1): Fraction(1, 2)}, {(1, 0): 3}]) == {0: (0, 1), 1: (1, 0)}
    # the second column's leading row is a pivot; reducing it leaves row "b"
    assert independent_columns([{"a": 1}, {"a": 2, "b": Fraction(1, 3)}]) == {0: "a", 1: "b"}
    with pytest.raises(InexactEntry):
        independent_columns([{0: 0.5}])
