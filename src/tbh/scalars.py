"""Scalar arithmetic: exact rationals plus a tolerance-compared float backend.

Every rational quantity in the package (contents, diagonal entries, squared
off-diagonal products) lives in ``fractions.Fraction``, which is always
reduced with positive denominator and never overflows.  Square roots, which
are generically irrational, live in :class:`Approx`: a float wrapper whose
equality is tolerance based (relative 1e-9, absolute 1e-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NegativeRadicand

Rational = Fraction

REL_TOL = 1e-9
ABS_TOL = 1e-12


def approx_eq(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL):
    """Symmetric tolerance comparison of two real numbers."""
    x = float(x)
    y = float(y)
    return abs(x - y) <= max(abs_tol, rel_tol * max(abs(x), abs(y)))


@dataclass(frozen=True)
class Approx:
    """A float with tolerance-based equality.

    Arithmetic with Rational/int/float operands stays inside Approx, so
    matrices may freely mix exact diagonals with square-root off-diagonals.
    """

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))

    def __float__(self):
        return self.value

    def __eq__(self, other):
        if isinstance(other, Approx):
            return approx_eq(self.value, other.value)
        if isinstance(other, (int, float, Fraction)):
            return approx_eq(self.value, float(other))
        return NotImplemented

    # Tolerance equality is not hash-compatible.
    __hash__ = None

    def __add__(self, other):
        return Approx(self.value + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Approx(self.value - float(other))

    def __rsub__(self, other):
        return Approx(float(other) - self.value)

    def __mul__(self, other):
        return Approx(self.value * float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Approx(self.value / float(other))

    def __rtruediv__(self, other):
        return Approx(float(other) / self.value)

    def __neg__(self):
        return Approx(-self.value)

    def __abs__(self):
        return Approx(abs(self.value))

    def __repr__(self):
        return f"Approx({self.value!r})"


def sqrt_checked(x) -> Approx:
    """Square root of a nonnegative rational.

    Raises :class:`NegativeRadicand` on negative input; the caller is
    expected to treat that as an internal invariant violation, not as a
    recoverable condition.
    """
    x = Fraction(x)
    if x < 0:
        raise NegativeRadicand(f"sqrt of negative rational {x}")
    return Approx(math.sqrt(x))


def rational_to_str(x) -> str:
    """Serialize a rational as "p/q" (denominator always written)."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s: str) -> Fraction:
    """Parse "p/q" or a plain integer string."""
    return Fraction(s)

