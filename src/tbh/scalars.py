"""Serialization of exact rationals.

Every quantity in the package (contents, diagonal entries, squared
off-diagonal products, operator entries) is an exact rational: an int or
a ``fractions.Fraction``.  The inner loops keep integer numerators over
one positive denominator instead (operators in ``matrices``, the word
evaluator in ``algebra``, the squared chains of ``check_criteria``), and
compare such pairs exactly.  Nothing takes a square root or compares with
a tolerance; JSON output writes each rational as a "p/q" string.
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
