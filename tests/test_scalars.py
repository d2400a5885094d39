from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tbh.scalars import rational_from_str, rational_to_str

rationals = st.fractions(max_denominator=1000)
nonzero_rationals = rationals.filter(lambda x: x != 0)


def test_rational_arith_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(3, 4) * 0 == 0
    assert Fraction(-1, 2) / Fraction(-1, 2) == 1


def test_rational_always_reduced():
    x = Fraction(6, 4)
    assert (x.numerator, x.denominator) == (3, 2)
    assert Fraction(1, -2).denominator == 2


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


@given(rationals, rationals)
def test_addition_round_trips(a, b):
    assert (a + b) - b == a


@given(rationals, nonzero_rationals)
def test_multiplication_round_trips(a, b):
    assert (a * b) / b == a


def test_serialization_round_trip():
    assert rational_to_str(Fraction(5, 6)) == "5/6"
    assert rational_to_str(Fraction(3)) == "3/1"
    assert rational_from_str("5/6") == Fraction(5, 6)
    assert rational_from_str("-7") == -7


@given(rationals)
def test_serialization_round_trips_everything(x):
    assert rational_from_str(rational_to_str(x)) == x
