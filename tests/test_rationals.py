from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchcore.rationals import format_rational, parse_rational

fractions = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


def test_parse_decimal_is_exact():
    assert parse_rational("1.1") == Fraction(11, 10)
    assert parse_rational("0") == Fraction(0)
    assert parse_rational("2.1") == Fraction(21, 10)
    assert parse_rational("-0.5") == Fraction(-1, 2)


def test_parse_ratio():
    assert parse_rational("11/10") == parse_rational("1.1")
    assert parse_rational("-3/6") == Fraction(-1, 2)


@pytest.mark.parametrize(
    "bad", ["", "1/0", "abc", "1e3", " 1", "1 ", "+1", "5/-3", "1.5.2", "1/"]
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format():
    assert format_rational(Fraction(2)) == "2"
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


@given(fractions)
def test_format_parse_fixed_point(q):
    text = format_rational(q)
    assert parse_rational(text) == q
    assert format_rational(parse_rational(text)) == text


@given(fractions, fractions)
def test_addition_is_exact(a, b):
    assert (a + b) - b == a


@given(fractions, fractions.filter(lambda b: b != 0))
def test_multiplication_is_exact(a, b):
    assert a * b / b == a


@given(fractions)
def test_canonical_form(q):
    from math import gcd

    assert q.denominator > 0
    assert gcd(q.numerator, q.denominator) == 1
