from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from piforge.exact_core import factorial, memo_cap, set_memo_cap

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10**6
)


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(11) == 39916800
    assert factorial(13) == 6227020800


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_memo_cap_roundtrip():
    old = set_memo_cap(10)
    try:
        assert memo_cap() == 10
        assert factorial(25) == 15511210043330985984000000  # above cap, uncached
    finally:
        set_memo_cap(old)
    assert memo_cap() == old


def test_rational_examples():
    assert Fraction(1, 24) - Fraction(1, 32) == Fraction(1, 96)
    x = Fraction(-7, 13)
    assert x * 1 == x
    assert Fraction(1, 6) ** 2 == Fraction(1, 36)


def test_division_by_zero_is_reported():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 0)


@given(rationals, rationals)
def test_ops_stay_canonical(a, b):
    results = [a + b, a - b, a * b]
    if b != 0:
        results.append(a / b)
    results.append(a**2)
    for q in results:
        assert q.denominator >= 1 and gcd(q.numerator, q.denominator) == 1


@given(rationals, rationals, rationals)
def test_add_mul_associative_commutative(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
