"""Scalar arithmetic: exact rationals, plus float square roots for dumps.

Every rational quantity in the package (contents, diagonal entries, squared
off-diagonal products) lives in ``fractions.Fraction``, which is always
reduced with positive denominator and never overflows.  Square roots, which
are generically irrational, are plain floats; they appear only in the
positive-root matrices of ``--dump``, and floats are compared with
:func:`approx_eq` (relative 1e-9, absolute 1e-12).
"""

from __future__ import annotations

import math
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


def sqrt_checked(x) -> float:
    """Float square root of a nonnegative rational.

    Raises :class:`NegativeRadicand` on negative input; the caller is
    expected to treat that as an internal invariant violation, not as a
    recoverable condition.
    """
    x = Fraction(x)
    if x < 0:
        raise NegativeRadicand(f"sqrt of negative rational {x}")
    return math.sqrt(x)


def rational_to_str(x) -> str:
    """Serialize a rational as "p/q" (denominator always written)."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s: str) -> Fraction:
    """Parse "p/q" or a plain integer string."""
    return Fraction(s)

