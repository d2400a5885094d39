import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbh.errors import DimensionMismatch
from tbh.matrices import Matrix, rank_exact, rank_of_columns


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


def _reference_rank(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ri = 0
    if not rows:
        return 0
    for c in range(len(rows[0])):
        piv = next((r for r in range(ri, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[ri], rows[piv] = rows[piv], rows[ri]
        pv = rows[ri][c]
        for r in range(len(rows)):
            if r != ri and rows[r][c] != 0:
                f = rows[r][c] / pv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[ri])]
        ri += 1
        rank += 1
    return rank


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
        assert rank_exact(prod) == _reference_rank(prod)


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


@settings(max_examples=200, deadline=None)
@given(block_sparse_columns())
def test_rank_of_columns_matches_rank_exact(columns):
    rows = list(dict.fromkeys(r for col in columns for r in col))
    dense = [[col.get(r, 0) for col in columns] for r in rows]
    assert rank_of_columns(columns) == rank_exact(dense)


def test_rank_of_columns_examples():
    assert rank_of_columns([]) == 0
    assert rank_of_columns([{}, {0: 0}]) == 0
    # two proportional columns share row "a": one block of rank 1
    assert rank_of_columns([{"a": 2, "b": 4}, {}, {"a": 1, "b": 2}]) == 1
    # disjoint supports: two blocks of rank 1
    assert rank_of_columns([{(0, 1): Fraction(1, 2)}, {(1, 0): 3}]) == 2
