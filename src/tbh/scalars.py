"""Serialization of exact rationals.

Every quantity in the package (contents, diagonal entries, squared
off-diagonal products, operator entries) lives in ``fractions.Fraction``,
which is always reduced with positive denominator and never overflows.
Nothing takes a square root or compares with a tolerance; JSON output
writes each rational as a "p/q" string.
"""

from __future__ import annotations

from fractions import Fraction


def rational_to_str(x) -> str:
    """Serialize a rational as "p/q" (denominator always written)."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s: str) -> Fraction:
    """Parse "p/q" or a plain integer string."""
    return Fraction(s)
