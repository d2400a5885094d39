"""Column-sparse exact operators, and dense matrices for tests.

``SparseOperator`` is the one operator representation of the checks: the
seminormal modules and the tensor oracle both build their operators as
SparseOperators, and the word evaluator applies them to lists of sparse
columns ({row: entry} dicts) without ever forming a product of operators.
Entries are exact only.  An operator is stored as integer numerators
``num`` over one positive denominator ``den``, the lcm of its entry
denominators; its rational columns ``cols`` are derived from them.  The
word evaluator runs on ``num`` and ``den``, so it builds no Fraction.

``Matrix`` is a plain tuple-of-tuples with generic arithmetic and exact
equality; nothing in the package builds one any more.  The tests use it
as a dense reference, and the benchmark tracer wraps ``Matrix.__mul__``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, InexactEntry


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

    def equal(self, other):
        """Exact entrywise comparison."""
        self._require_same_dim(other)
        return self.rows == other.rows

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

    It is built from rational columns, ``cols[j]`` mapping row index to the
    entry of column j; entries must be int or Fraction, anything else
    raises InexactEntry, so every comparison downstream is exact.  It
    stores integer numerators ``num`` (zeros dropped) over one positive
    denominator ``den``, the lcm of the entry denominators; the rational
    view ``cols`` is ``num`` itself when ``den`` is 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, cols):
        cols = [dict(col) for col in cols]
        n = len(cols)
        den = 1
        for col in cols:
            for i, v in list(col.items()):
                if not isinstance(v, (int, Fraction)):
                    raise InexactEntry(f"operator entry {v!r} is not an int or Fraction")
                if not 0 <= i < n:
                    raise DimensionMismatch(f"row {i} outside an operator of dim {n}")
                if not v:
                    del col[i]
                elif type(v) is Fraction:
                    if v.denominator == 1:
                        col[i] = v.numerator
                    elif den % v.denominator:
                        den = math.lcm(den, v.denominator)
        self.den = den
        self.num = cols if den == 1 else _scaled(cols, den)

    @property
    def cols(self):
        """The rational columns, ``num`` / ``den``, built on each access."""
        return rational_columns(self.num, self.den)

    @property
    def dim(self):
        return len(self.num)

    def apply(self, columns):
        """Images of sparse columns, with cancelled entries dropped."""
        return rational_columns(_apply(self.num, columns), self.den)

    def apply_num(self, columns):
        """``den`` times the images of sparse columns, over the integer ``num``."""
        return _apply(self.num, columns)


def _apply(ops, columns):
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


def _scaled(columns, den):
    return [{i: v.numerator * (den // v.denominator) for i, v in col.items()} for col in columns]


def rational_columns(num, den):
    """Integer columns divided by den; ``num`` itself when den is 1."""
    if den == 1:
        return num
    return [{i: Fraction(v, den) for i, v in col.items()} for col in num]


def integer_columns(columns):
    """(num, den): sparse columns as integer numerators over one denominator.

    ``den`` is the lcm of the entry denominators and ``num`` is ``columns``
    times ``den``; when every entry is an int, ``num`` is ``columns``
    itself.  Entries must be int or Fraction, else InexactEntry.
    """
    den = 1
    for col in columns:
        for v in col.values():
            if type(v) is not int:
                if not isinstance(v, (int, Fraction)):
                    raise InexactEntry(f"column entry {v!r} is not an int or Fraction")
                if den % v.denominator:
                    den = math.lcm(den, v.denominator)
    return (columns if den == 1 else _scaled(columns, den)), den


def as_operator(value) -> SparseOperator:
    """A SparseOperator as is; a list of column dicts converted."""
    if isinstance(value, SparseOperator):
        return value
    return SparseOperator(value)


def identity_columns(n):
    return [{j: 1} for j in range(n)]


def rank_exact(rows) -> int:
    """Rank of a rectangular matrix with int or Fraction entries.

    Fraction-free (Bareiss style) elimination over the integers; Fraction
    rows are cleared to integers first.  Exact for any input size; intended
    for the desk-scale matrices that appear here.
    """
    work = []
    for row in rows:
        row = list(row)
        # Every non-int entry must carry a denominator.  An exact type test:
        # isinstance(x, Fraction) goes through the numbers ABCs per int cell.
        denoms = [x.denominator for x in row if type(x) is not int]
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


def rank_of_columns(columns) -> int:
    """Exact rank of a matrix given as sparse columns ({row: entry} dicts).

    Union-find joins two columns whenever they share a nonzero row.  After
    permuting rows and columns the matrix is block diagonal in these
    components, so its rank is the sum of the block ranks; each block goes
    to ``rank_exact`` as dense rows over its own row support, and
    ``rank_exact`` never sees more than one block.  Row keys may be any
    hashable values.  On the oracle's shifted z_i images the blocks lie
    inside gl_n weight spaces, since the z_i commute with every E_jj, but
    nothing here relies on that.
    """
    parent = list(range(len(columns)))

    def find(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    first_column = {}  # row -> the first column with a nonzero entry there
    for j, col in enumerate(columns):
        for r, v in col.items():
            if v:
                root, other = find(j), find(first_column.setdefault(r, j))
                if root != other:
                    parent[other] = root
    blocks = {}
    for j, col in enumerate(columns):
        if any(col.values()):
            blocks.setdefault(find(j), []).append(col)
    rank = 0
    for block in blocks.values():
        rows = dict.fromkeys(r for col in block for r in col)
        rank += rank_exact([[col.get(r, 0) for col in block] for r in rows])
    return rank
