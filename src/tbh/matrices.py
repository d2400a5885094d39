"""Column-sparse exact operators, and dense matrices for tests.

``SparseOperator`` is the one operator representation of the checks: the
seminormal modules and the tensor oracle both build their operators as
SparseOperators, and the word evaluator applies them to lists of sparse
columns ({row: entry} dicts) without ever forming a product of operators.
Entries are exact only.  An operator is stored as integer numerators
``num`` over one positive denominator ``den``, the lcm of its entry
denominators; its rational columns ``cols`` are derived from them.  The
word evaluator runs on ``num`` and ``den``, so it builds no Fraction.

``independent_columns`` is the package's one exact elimination: a sparse,
fraction-free elimination on columns, indexed by pivot row, that keeps
each column independent of the ones before it.  ``young_image`` reads its
kept columns and the oracle's spectra its rank; ``rank_exact`` is only a
dense-rows front end of it.

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
    den, all_int = 1, True
    for col in columns:
        for v in col.values():
            if type(v) is not int:
                if not isinstance(v, (int, Fraction)):
                    raise InexactEntry(f"column entry {v!r} is not an int or Fraction")
                all_int = False
                if den % v.denominator:
                    den = math.lcm(den, v.denominator)
    return (columns if all_int else _scaled(columns, den)), den


def as_operator(value) -> SparseOperator:
    """A SparseOperator as is; a list of column dicts converted."""
    if isinstance(value, SparseOperator):
        return value
    return SparseOperator(value)


def identity_columns(n):
    return [{j: 1} for j in range(n)]


def independent_columns(columns) -> dict:
    """Index -> pivot row of each column independent of the columns before it.

    The package's one exact elimination, sparse and fraction-free.  Columns
    are {row: entry} dicts with int or Fraction entries (scaled to integers
    by one common denominator first) whose row keys compare with each
    other.  One dict maps each pivot row to its reduced column, stored
    divided by its content with a positive entry at the pivot, which is the
    column's smallest remaining row.  A new column is reduced only while
    its leading row is a pivot; each step clears that row and touches no
    smaller one.  The stored columns have distinct leading rows, so a
    column left nonzero is independent of them and is kept under its
    leading row, and a column reduced to zero is dependent.  So a column is
    kept exactly when it is independent of the columns before it, the kept
    indices come out in increasing order, and their number is the rank.

    A column only meets the pivots at rows of its own reduced support.  So
    on columns that each lie in one gl_n weight space, such as the images
    of z_i - c on the oracle's carrier, every pivot a column meets lies in
    its weight space, and the work per column is bounded by the largest
    weight space.
    """
    num, _ = integer_columns(columns)
    pivots = {}  # pivot row -> reduced column, zero at every smaller row
    kept = {}
    for j, col in enumerate(num):
        vec = {i: v for i, v in col.items() if v}
        while vec:
            lead = min(vec)
            row = pivots.get(lead)
            if row is None:
                g = math.gcd(*vec.values())
                if vec[lead] < 0:
                    g = -g
                pivots[lead] = vec if g == 1 else {i: v // g for i, v in vec.items()}
                kept[j] = lead
                break
            a, b = vec[lead], row[lead]
            g = math.gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                vec = {i: b * v for i, v in vec.items()}
            for i, r in row.items():
                v = vec.get(i, 0) - a * r
                if v:
                    vec[i] = v
                else:
                    del vec[i]
    return kept


def rank_exact(rows) -> int:
    """Rank of a dense matrix of int or Fraction entries, given as rows.

    The rank of the rows, each taken as a sparse column of
    ``independent_columns``.
    """
    return len(independent_columns([{c: x for c, x in enumerate(row) if x} for row in rows]))
