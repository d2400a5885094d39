"""Column-sparse exact operators, and dense matrices for dumps and tests.

``SparseOperator`` is the one operator representation of the checks: the
seminormal modules and the tensor oracle both build their operators as
SparseOperators, and the word evaluator applies them to lists of sparse
columns ({row: entry} dicts) without ever forming a product of operators.
Entries are exact only.

``Matrix`` is a plain tuple-of-tuples with generic arithmetic; it now serves
only the ``--dump`` output and the tests.  A matrix is *exact* when every
entry is an int or Fraction; products and sums of exact matrices stay exact,
and equality of exact matrices is exact.  As soon as an Approx (or raw
float) entry appears, comparisons switch to the shared tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, InexactEntry
from .scalars import Approx, approx_eq


def _as_number(x):
    return x.value if isinstance(x, Approx) else x


def _normalize_scalar(x):
    # Keep integral Fractions as plain ints so exact fast paths stay fast.
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


@dataclass(frozen=True)
class Matrix:
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square")

    @property
    def dim(self):
        return len(self.rows)

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, entries):
        entries = tuple(entries)
        n = len(entries)
        return cls(tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))

    def is_exact(self):
        return all(isinstance(x, (int, Fraction)) for r in self.rows for x in r)

    def _require_same_dim(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_same_dim(other)
        return Matrix(tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_same_dim(other)
        return Matrix(tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def __neg__(self):
        return Matrix(tuple(tuple(-a for a in r) for r in self.rows))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._require_same_dim(other)
            cols = tuple(zip(*other.rows))
            return Matrix(
                tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows)
            )
        other = _normalize_scalar(other)
        return Matrix(tuple(tuple(a * other for a in r) for r in self.rows))

    def __rmul__(self, scalar):
        scalar = _normalize_scalar(scalar)
        return Matrix(tuple(tuple(scalar * a for a in r) for r in self.rows))

    def trace(self):
        return sum(self.rows[i][i] for i in range(self.dim))

    def max_abs(self):
        return max((abs(float(_as_number(x))) for r in self.rows for x in r), default=0.0)

    def equal(self, other):
        """Exact comparison when both operands are exact, tolerance otherwise."""
        self._require_same_dim(other)
        if self.is_exact() and other.is_exact():
            return all(a == b for r, s in zip(self.rows, other.rows) for a, b in zip(r, s))
        scale = max(1.0, self.max_abs(), other.max_abs())
        return all(
            approx_eq(float(_as_number(a)) / scale, float(_as_number(b)) / scale)
            for r, s in zip(self.rows, other.rows)
            for a, b in zip(r, s)
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.equal(other)

    __hash__ = None


def apply_to_columns(a: Matrix, cols):
    """Compute a @ cols for a rectangular column block.

    ``cols`` is a list of column vectors (each a list of entries of length
    a.dim).  Nothing in the package calls it any more: the tensor oracle
    applies SparseOperators to its sparse inclusion columns.  It stays
    because the benchmark tracer wraps it by name.
    """
    n = a.dim
    out = []
    for col in cols:
        if len(col) != n:
            raise DimensionMismatch(f"column length {len(col)} vs {n}")
        nz = [(i, v) for i, v in enumerate(col) if v != 0]
        out.append([sum(row[i] * v for i, v in nz) for row in a.rows])
    return out


class SparseOperator:
    """A square operator over exact rationals, stored column by column.

    ``cols[j]`` maps row index to the nonzero entry of column j.  Entries
    must be int or Fraction (integral Fractions are kept as ints); anything
    else raises InexactEntry, so every comparison downstream is exact.
    """

    __slots__ = ("cols",)

    def __init__(self, cols):
        cols = [dict(col) for col in cols]
        n = len(cols)
        for col in cols:
            for i, v in list(col.items()):
                if not isinstance(v, (int, Fraction)):
                    raise InexactEntry(f"operator entry {v!r} is not an int or Fraction")
                if not 0 <= i < n:
                    raise DimensionMismatch(f"row {i} outside an operator of dim {n}")
                if not v:
                    del col[i]
                elif type(v) is Fraction and v.denominator == 1:
                    col[i] = v.numerator
        self.cols = cols

    @classmethod
    def from_matrix(cls, m: Matrix) -> "SparseOperator":
        cols = [{} for _ in range(m.dim)]
        for i, row in enumerate(m.rows):
            for j, v in enumerate(row):
                if v:
                    cols[j][i] = v
        return cls(cols)

    @property
    def dim(self):
        return len(self.cols)

    def apply(self, columns):
        """Images of sparse columns, with cancelled entries dropped."""
        ops = self.cols
        out = []
        for col in columns:
            if len(col) == 1:
                # One nonzero entry: a scaled operator column, nothing cancels.
                ((j, v),) = col.items()
                out.append(ops[j] if v == 1 else {i: a * v for i, a in ops[j].items()})
                continue
            acc = {}
            for j, v in col.items():
                for i, a in ops[j].items():
                    if i in acc:
                        acc[i] += a * v
                    else:
                        acc[i] = a * v
            out.append({i: x for i, x in acc.items() if x})
        return out


def as_operator(value) -> SparseOperator:
    """A SparseOperator as is; a Matrix or a list of column dicts converted."""
    if isinstance(value, SparseOperator):
        return value
    if isinstance(value, Matrix):
        return SparseOperator.from_matrix(value)
    return SparseOperator(value)


def identity_columns(n):
    return [{j: 1} for j in range(n)]


def charpoly2(m: Matrix):
    """Coefficients (1, c1, c0) of the characteristic polynomial of a 2x2."""
    if m.dim != 2:
        raise DimensionMismatch("charpoly2 needs a 2x2 matrix")
    tr = m.rows[0][0] + m.rows[1][1]
    det = m.rows[0][0] * m.rows[1][1] - m.rows[0][1] * m.rows[1][0]
    return (1, -tr, det)


def matrix_to_json(m: Matrix):
    """Row-major JSON document: rationals as "p/q" strings, floats as doubles."""
    from .scalars import rational_to_str

    def enc(x):
        if isinstance(x, Approx):
            return x.value
        if isinstance(x, float):
            return x
        return rational_to_str(Fraction(x))

    return {"dim": m.dim, "rows": [[enc(x) for x in row] for row in m.rows]}


def matrix_from_json(doc) -> Matrix:
    from .scalars import rational_from_str

    def dec(x):
        return x if isinstance(x, float) else rational_from_str(x)

    return Matrix(tuple(tuple(dec(x) for x in row) for row in doc["rows"]))


def rank_exact(rows) -> int:
    """Rank of a rectangular matrix with int or Fraction entries.

    Fraction-free (Bareiss style) elimination over the integers; Fraction
    rows are cleared to integers first.  Exact for any input size; intended
    for the desk-scale matrices that appear here.
    """
    work = []
    for row in rows:
        row = list(row)
        denoms = [x.denominator for x in row if isinstance(x, Fraction)]
        if denoms:
            lcm = 1
            for d in denoms:
                lcm = lcm * d // math.gcd(lcm, d)
            row = [int(x * lcm) for x in row]
        else:
            row = [int(x) for x in row]
        work.append(row)
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    prev_pivot = 1
    row_idx = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row_idx, len(work)):
            if work[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[row_idx], work[pivot_row] = work[pivot_row], work[row_idx]
        pivot = work[row_idx][col]
        row_p = work[row_idx]
        for r in range(row_idx + 1, len(work)):
            factor = work[r][col]
            row_r = work[r]
            # Bareiss update: every entry is a minor, so the division is exact.
            work[r] = [(pivot * row_r[c] - factor * row_p[c]) // prev_pivot for c in range(ncols)]
        prev_pivot = pivot
        row_idx += 1
        rank += 1
        if row_idx == len(work):
            break
    return rank
