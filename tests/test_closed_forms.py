from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from piforge import closed_forms
from piforge.closed_forms import power_sums
from piforge.special_numbers import TableDepthError, bernoulli_numbers, euler_numbers

from oracles import (
    beta_partial,
    beta_pi_coeff,
    contains,
    pi_multiple_interval,
    power_sums_loop,
    zeta_partial,
    zeta_pi_coeff,
)

BETA_COEFFS = [
    Fraction(1, 4),
    Fraction(1, 32),
    Fraction(5, 1536),
    Fraction(61, 184320),
    Fraction(1385, 41287680),
    Fraction(50521, 14863564800),
]
ZETA_COEFFS = {
    1: Fraction(1, 6),
    2: Fraction(1, 90),
    3: Fraction(1, 945),
    4: Fraction(1, 9450),
    5: Fraction(1, 93555),
    6: Fraction(691, 638512875),
    7: Fraction(2, 18243225),
}


def test_beta_coefficients(euler_table):
    for k, expected in enumerate(BETA_COEFFS):
        got = beta_pi_coeff(k, euler_table)
        assert got.coeff == expected
        assert got.power == 2 * k + 1
    deep = beta_pi_coeff(6, euler_table)
    assert deep.coeff == Fraction(2702765, 16384 * 479001600)
    assert deep.power == 13


def test_zeta_coefficients(bernoulli_table):
    for k, expected in ZETA_COEFFS.items():
        got = zeta_pi_coeff(k, bernoulli_table)
        assert got.coeff == expected
        assert got.power == 2 * k


def test_zeta_positive_throughout():
    bern = bernoulli_numbers(40)
    for k in range(1, 41):
        assert zeta_pi_coeff(k, bern).coeff > 0


def test_argument_validation(euler_table, bernoulli_table):
    with pytest.raises(ValueError):
        zeta_pi_coeff(0, bernoulli_table)
    with pytest.raises(ValueError):
        beta_pi_coeff(-1, euler_table)
    with pytest.raises(TableDepthError):
        beta_pi_coeff(50, euler_table)
    with pytest.raises(TableDepthError):
        zeta_pi_coeff(50, bernoulli_table)


def test_beta_partial_single_term_degenerate(ctx128):
    value = beta_partial(0, 1, ctx128)
    assert value.partial.lo == value.partial.hi == 1
    assert value.tail == Fraction(1, 3)


def test_partial_enclosures_contain_closed_forms(ctx128, euler_table, bernoulli_table):
    zeta2 = pi_multiple_interval(zeta_pi_coeff(1, bernoulli_table), ctx128)
    for N in (10, 100, 10**4):
        assert contains(zeta_partial(1, N, ctx128).enclosure, zeta2)
    beta1 = pi_multiple_interval(beta_pi_coeff(1, euler_table), ctx128)  # pi^3/32
    for N in (10, 100, 1000):
        assert contains(beta_partial(1, N, ctx128).enclosure, beta1)


def test_consistency_grid(ctx128, euler_table, bernoulli_table):
    N = 10**4
    for k in range(0, 7):
        closed = pi_multiple_interval(beta_pi_coeff(k, euler_table), ctx128)
        assert contains(beta_partial(k, N, ctx128).enclosure, closed)
    for k in range(1, 7):
        closed = pi_multiple_interval(zeta_pi_coeff(k, bernoulli_table), ctx128)
        assert contains(zeta_partial(k, N, ctx128).enclosure, closed)


def test_pi_squared_cross_check(ctx128):
    # 6 * sum 1/m^2 must enclose the engine's independent pi^2
    enclosure = zeta_partial(1, 10**4, ctx128).enclosure.mul_ratio(6, 1)
    assert contains(enclosure, ctx128.pi_power(2))


def test_partials_equal_per_term_interval_sums(ctx128):
    """The kernel at the context scale rounds each term outward exactly as
    ctx.from_rational does, so the sums agree bit for bit."""
    for N in (1, 2, 3, 17, 50):
        for k in range(0, 5):
            expected = ctx128.zero()
            for m in range(1, N + 1):
                sign = 1 if m % 2 == 1 else -1
                expected = expected + ctx128.from_rational(
                    Fraction(sign, (2 * m - 1) ** (2 * k + 1))
                )
            assert beta_partial(k, N, ctx128).partial == expected
        for k in range(1, 5):
            expected = ctx128.zero()
            for m in range(1, N + 1):
                expected = expected + ctx128.from_rational(Fraction(1, m ** (2 * k)))
            assert zeta_partial(k, N, ctx128).partial == expected


def test_power_sums_bracket_exact_sums():
    work = 64
    for alternating in (True, False):
        for q, count, N in ((1, 3, 1), (2, 4, 7), (3, 2, 40)):
            brackets = power_sums(alternating, q, count, N, work)
            assert len(brackets) == count
            for j, (lo, hi) in enumerate(brackets):
                exact = sum(
                    Fraction(
                        -1 if alternating and n % 2 == 0 else 1,
                        (2 * n - 1 if alternating else n) ** (q + 2 * j),
                    )
                    for n in range(1, N + 1)
                )
                assert lo <= exact * 2**work <= hi
                assert hi - lo <= N
    # dyadic terms stay exact: 1 + 1/4 at j = 0, 1 + 1/16 at j = 1
    assert power_sums(False, 2, 2, 2, 8) == [(320, 320), (272, 272)]
    assert power_sums(True, 1, 1, 1, 8) == [(256, 256)]


@settings(max_examples=60, deadline=None)
@given(
    alternating=st.booleans(),
    q=st.integers(min_value=1, max_value=17),
    count=st.integers(min_value=0, max_value=9),
    N=st.integers(min_value=0, max_value=3000),
    work=st.integers(min_value=0, max_value=420),
)
@example(alternating=True, q=3, count=4, N=255, work=200)
@example(alternating=True, q=3, count=4, N=256, work=200)
@example(alternating=True, q=3, count=4, N=257, work=200)
@example(alternating=True, q=3, count=4, N=511, work=200)
@example(alternating=True, q=3, count=4, N=512, work=200)
@example(alternating=True, q=3, count=4, N=513, work=200)
@example(alternating=True, q=3, count=4, N=1025, work=200)
@example(alternating=False, q=2, count=4, N=255, work=200)
@example(alternating=False, q=2, count=4, N=256, work=200)
@example(alternating=False, q=2, count=4, N=257, work=200)
@example(alternating=False, q=2, count=4, N=511, work=200)
@example(alternating=False, q=2, count=4, N=512, work=200)
@example(alternating=False, q=2, count=4, N=513, work=200)
@example(alternating=False, q=2, count=4, N=1025, work=200)
# 8**2 = 2**6: exact at j = 0 with work 6, inexact at j = 1 and with work 5
@example(alternating=False, q=2, count=2, N=8, work=6)
@example(alternating=False, q=2, count=2, N=8, work=5)
# the widest converge-sum cell, gupta p = 1, k = 8 at N = 10**5
@example(alternating=True, q=1, count=9, N=100000, work=252)
def test_power_sums_equals_loop_oracle(alternating, q, count, N, work):
    assert power_sums(alternating, q, count, N, work) == power_sums_loop(
        alternating, q, count, N, work
    )


def test_power_sums_empty_cases():
    for alternating in (True, False):
        assert power_sums(alternating, 3, 4, 0, 64) == [(0, 0)] * 4
        assert power_sums(alternating, 3, 0, 1000, 64) == []
    with pytest.raises(ValueError):
        power_sums(True, 0, 1, 10, 64)


@pytest.mark.parametrize("block", [1, 7, 256])
def test_power_sums_independent_of_block_size(monkeypatch, block):
    """The grid crosses block edges in both classes of the alternating
    series (each holds about N/2 bases) and in the one even class."""
    monkeypatch.setattr(closed_forms, "BLOCK", block)
    for alternating in (True, False):
        for q in (1, 2, 5):
            for N in (1, 6, 14, 15, 300, 513, 600):
                args = (alternating, q, 3, N, 150)
                assert power_sums(*args) == power_sums_loop(*args)


def test_partial_validation(ctx128):
    with pytest.raises(ValueError):
        beta_partial(0, 0, ctx128)
    with pytest.raises(ValueError):
        zeta_partial(0, 10, ctx128)
