from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from piforge.gupta_series import partial_sum, prefactor, tail_bound
from piforge.numeric_engine import PrecisionContext

from oracles import CLASSICAL_COEFF, contains, inner_poly, widened

small_rationals = st.fractions(
    min_value=Fraction(0), max_value=Fraction(1, 4), max_denominator=10**4
)

# Constants printed in the per-k verification lines, k = 1..4 where the
# leading power of two is shown with the factorial distributed into the
# bracket, and k = 0..4 where the whole prefactor is printed.
P1_POW2 = {1: 16, 2: 64, 3: 256, 4: 1024}
P3_PRINTED = {
    1: Fraction(512),
    2: Fraction(20480),
    3: Fraction(371589120, 255),
    4: Fraction(4954521600, 31),
}
P5_PRINTED = {
    0: Fraction(1536, 5),
    1: Fraction(256 * 5040, 273),
    2: Fraction(1024 * 362880, 2049),
    3: Fraction(4096 * 39916800, 13057),
    4: Fraction(16384 * 6227020800, 75777),
}
P2_PRINTED = {0: 6, 1: 60, 2: 1680, 3: 90720, 4: 7983360}
P4_PRINTED = {0: 90, 1: 1260, 2: 45360, 3: 2993760, 4: 311351040}
P6_PRINTED = {0: 945, 1: 14175, 2: 534600, 3: 36486450, 4: 3891888000}


def test_prefactor_printed_constants():
    for k, pow2 in P1_POW2.items():
        assert prefactor(1, k) == pow2 * factorial(2 * k + 1)
    for table, p in ((P3_PRINTED, 3), (P5_PRINTED, 5)):
        for k, expected in table.items():
            assert prefactor(p, k) == expected
    for table, p in ((P2_PRINTED, 2), (P4_PRINTED, 4), (P6_PRINTED, 6)):
        for k, expected in table.items():
            assert prefactor(p, k) == expected


def test_prefactor_k0_collapse():
    for p, coeff in CLASSICAL_COEFF.items():
        assert prefactor(p, 0) == coeff
        assert inner_poly(0, Fraction(7, 9)) == 1


def test_prefactor_validation():
    with pytest.raises(ValueError):
        prefactor(7, 0)
    with pytest.raises(ValueError):
        prefactor(2, -1)


@given(small_rationals)
def test_inner_poly_k1_symbolic(x):
    assert inner_poly(1, x) == Fraction(1, 6) - x


def test_inner_poly_examples():
    assert inner_poly(2, Fraction(0)) == Fraction(1, 120)
    x = Fraction(3, 17)
    assert inner_poly(2, x) == Fraction(1, 120) - x / 6 + x * x


def test_term_examples(ctx128):
    # single terms, read off the partial sums over one and two terms
    t = partial_sum(1, 0, 1, ctx128)
    assert t.lo == t.hi == 4
    first = partial_sum(2, 0, 1, ctx128)
    second = partial_sum(2, 0, 2, ctx128) - first
    assert second.lo == second.hi == Fraction(3, 2)
    # 60*(1/6 - 1/pi^2), brute-forced independently to 3.92072898145973371...
    t = partial_sum(2, 1, 1, ctx128)
    assert Fraction("3.920728981459733713") < t.lo
    assert t.hi < Fraction("3.920728981459733714")


def mpmath_partial_sum(p, k, N):
    """The family's partial sum, term by term at 300 bits, as an exact
    rational."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 300
    pref = prefactor(p, k)
    total = mpmath.mpf(0)
    for n in range(1, N + 1):
        if p % 2 == 1:
            base = 2 * n - 1
            outer = mpmath.mpf((-1) ** (n + 1)) / base**p
        else:
            base = n
            outer = mpmath.mpf(1) / base**p
        x = 1 / (mpmath.mpf(base) ** 2 * mpmath.pi**2)
        poly = sum((-x) ** j / factorial(2 * k - 2 * j + 1) for j in range(k + 1))
        total += outer * poly
    total *= mpmath.mpf(pref.numerator) / pref.denominator
    man, exp = total.man_exp  # the mantissa is unsigned
    return (-1 if total < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def test_partial_sum_against_independent_oracle(ctx128):
    for p, k, N in ((3, 2, 50), (2, 1, 50), (6, 2, 25), (5, 1, 30)):
        enclosure = widened(partial_sum(p, k, N, ctx128), Fraction(1, 2**250))
        assert contains(enclosure, mpmath_partial_sum(p, k, N))


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=300),
)
@example(1, 8, 300)
@settings(max_examples=40, deadline=None)
def test_partial_sum_encloses_tightly(p, k, N):
    """The enclosure holds the 300-bit value (up to its rounding error, far
    below 2^-200 here) and is no wider than 2^-precision_bits, whatever
    the prefactor."""
    ctx = PrecisionContext(128)
    value = partial_sum(p, k, N, ctx)
    assert contains(widened(value, Fraction(1, 2**200)), mpmath_partial_sum(p, k, N))
    assert value.width <= Fraction(1, 2**ctx.precision_bits)


def classical_sum(p: int, N: int) -> Fraction:
    """c_p * sum_{n<=N} sign_n / base_n^p in exact rationals."""
    if p % 2 == 1:
        terms = (Fraction((-1) ** (n + 1), (2 * n - 1) ** p) for n in range(1, N + 1))
    else:
        terms = (Fraction(1, n**p) for n in range(1, N + 1))
    return CLASSICAL_COEFF[p] * sum(terms)


def test_collapse_to_classical(ctx128):
    """At k = 0 the family is the classical series, term for term."""
    for p in range(1, 7):
        for N in (1, 10, 1000):
            value = partial_sum(p, 0, N, ctx128)
            assert contains(value, classical_sum(p, N)), (p, N)
            assert value.width <= Fraction(1, 2**ctx128.precision_bits)


def test_classical_values(ctx128):
    v = partial_sum(4, 0, 1, ctx128)
    assert v.lo == v.hi == 90
    v = partial_sum(6, 0, 1, ctx128)
    assert v.lo == v.hi == 945
    v = partial_sum(2, 0, 2, ctx128)
    assert v.lo == v.hi == Fraction(15, 2)
    assert contains(partial_sum(1, 0, 1, ctx128), 4)


def test_tail_bound_formula():
    # leading term for (p=2, k=2) is 1680 / (120 N) = 14 / N
    for N in (10**3, 10**4):
        bound = tail_bound(2, 2, N)
        assert Fraction(14, N) < bound < Fraction(14, N) * Fraction(101, 100)
    # Leibniz case: first omitted term
    assert tail_bound(1, 0, 1000) == Fraction(4, 2001)


def test_residual_within_tail(ctx128):
    pi_targets = {p: ctx128.pi_power(p) for p in (1, 2, 5)}
    for p, k in ((1, 1), (2, 2), (5, 0)):
        previous = None
        for N in (500, 2000):
            value = partial_sum(p, k, N, ctx128)
            tail = tail_bound(p, k, N)
            assert contains(widened(value, tail), pi_targets[p])
            residual = abs(value.mid - pi_targets[p].mid)
            assert residual <= tail
            assert residual >= tail / 4
            if previous is not None:
                assert residual < previous
            previous = residual


def test_validation(ctx128):
    with pytest.raises(ValueError):
        partial_sum(1, 0, 0, ctx128)
    with pytest.raises(ValueError):
        partial_sum(7, 0, 10, ctx128)
