from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from piforge import closed_forms, gupta_series, tails, walk
from piforge.numeric_engine import CertifiedReal
from piforge.special_numbers import MAX_INDEX, TableDepthError, bernoulli_numbers, euler_numbers
from piforge.walk import power_sums

from oracles import (
    LEMMA_HEADS,
    beta_partial,
    beta_pi_coeff,
    bernoulli_fractions,
    contains,
    fit_tau,
    hi_of,
    hurwitz_tail,
    lo_of,
    pi_multiple_interval,
    poly_value,
    power_sums_loop,
    printed_prefactor,
    tail_sums_per_term,
    tau_from_lemmas,
    tau_from_tables,
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
    assert lo_of(value.partial) == hi_of(value.partial) == 1
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
            expected = CertifiedReal(ctx128, 0, 0)
            for m in range(1, N + 1):
                sign = 1 if m % 2 == 1 else -1
                expected = expected + ctx128.from_rational(
                    Fraction(sign, (2 * m - 1) ** (2 * k + 1))
                )
            assert beta_partial(k, N, ctx128).partial == expected
        for k in range(1, 5):
            expected = CertifiedReal(ctx128, 0, 0)
            for m in range(1, N + 1):
                expected = expected + ctx128.from_rational(Fraction(1, m ** (2 * k)))
            assert zeta_partial(k, N, ctx128).partial == expected


def test_power_sums_bracket_exact_sums():
    """Odd q sums the alternating series over the odd bases, even q the
    plain one."""
    work = 64
    for q, count, N in ((1, 3, 1), (2, 4, 7), (3, 2, 40), (4, 2, 40)):
        alternating = q % 2 == 1
        brackets = power_sums(q, count, N, work)
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
    assert power_sums(2, 2, 2, 8) == [(320, 320), (272, 272)]
    assert power_sums(1, 1, 1, 8) == [(256, 256)]


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(min_value=1, max_value=17),
    count=st.integers(min_value=0, max_value=9),
    N=st.integers(min_value=0, max_value=3000),
    work=st.integers(min_value=0, max_value=420),
)
@example(q=3, count=4, N=255, work=200)
@example(q=3, count=4, N=256, work=200)
@example(q=3, count=4, N=257, work=200)
@example(q=3, count=4, N=511, work=200)
@example(q=3, count=4, N=512, work=200)
@example(q=3, count=4, N=513, work=200)
@example(q=3, count=4, N=1025, work=200)
@example(q=2, count=4, N=255, work=200)
@example(q=2, count=4, N=256, work=200)
@example(q=2, count=4, N=257, work=200)
@example(q=2, count=4, N=511, work=200)
@example(q=2, count=4, N=512, work=200)
@example(q=2, count=4, N=513, work=200)
@example(q=2, count=4, N=1025, work=200)
# 8**2 = 2**6: exact at j = 0 with work 6, inexact at j = 1 and with work 5
@example(q=2, count=2, N=8, work=6)
@example(q=2, count=2, N=8, work=5)
# the widest converge-sum cell, gupta p = 1, k = 8 at N = 10**5
@example(q=1, count=9, N=100000, work=252)
def test_power_sums_equals_loop_oracle(q, count, N, work):
    assert power_sums(q, count, N, work) == power_sums_loop(q % 2 == 1, q, count, N, work)


def test_power_sums_empty_cases():
    for q in (3, 4):
        assert power_sums(q, 4, 0, 64) == [(0, 0)] * 4
        assert power_sums(q, 0, 1000, 64) == []
    with pytest.raises(ValueError):
        power_sums(0, 1, 10, 64)


@pytest.mark.parametrize("block", [1, 7, 256])
def test_power_sums_independent_of_block_size(monkeypatch, block):
    """The grid crosses block edges in both classes of the alternating
    series (each holds about N/2 bases) and in the one even class."""
    monkeypatch.setattr(walk, "BLOCK", block)
    for q in (1, 2, 5, 6):
        for N in (1, 6, 14, 15, 300, 513, 600):
            assert power_sums(q, 3, N, 150) == power_sums_loop(q % 2 == 1, q, 3, N, 150)


def test_partial_validation(ctx128):
    with pytest.raises(ValueError):
        beta_partial(0, 0, ctx128)
    with pytest.raises(ValueError):
        zeta_partial(0, 10, ctx128)


def test_pi_coefficients_match_oracles():
    """c_q of every q the tables reach: beta(q) up to q = 513 from E_512,
    zeta(q) up to q = 512 from B_512."""
    K = MAX_INDEX // 2
    euler, bern = euler_numbers(K), bernoulli_numbers(K)
    odd = tails.pi_coefficients(1, K + 1, euler)
    assert [Fraction(*c) for c in odd] == [beta_pi_coeff(m, euler).coeff for m in range(K + 1)]
    even = tails.pi_coefficients(2, K, bern)
    assert [Fraction(*c) for c in even] == [zeta_pi_coeff(m, bern).coeff for m in range(1, K + 1)]


@pytest.mark.parametrize("alternating, q", [(True, 1), (True, 3), (False, 2), (False, 6)])
@pytest.mark.parametrize("N", [1, 10, 1000, 10**6, 10**12])
def test_tail_sums_enclose_hurwitz_tails(alternating, q, N):
    """Each bracket holds the mpmath tail of the series the parity of q
    picks, with any number of terms, the diverging ones included; where the
    terms fall below a unit it is a few units per term wide."""
    work, count = 256, 3
    bern = bernoulli_numbers(40).values
    for terms in (1, 5, 40):
        brackets = tails.tail_sums(q, count, N, work, bern[: terms + 1])
        for j, (lo, hi) in enumerate(brackets):
            tail = hurwitz_tail(alternating, q + 2 * j, N, work + 64)
            assert Fraction(lo, 2**work) <= tail <= Fraction(hi, 2**work), (terms, j)
            if N >= 1000 and terms == 40:
                assert hi - lo <= 2 * terms + 4 + work // 16


@pytest.mark.parametrize("work", [128, 1024, 4096])
@pytest.mark.parametrize("q", range(1, 7))
def test_tail_sums_equal_the_per_term_oracle(q, work):
    """Building each D_r(y) once changes no integer: the brackets equal the
    per-term oracle's for one to nine exponents, at N on both sides of the
    path rule's crossover (280-3,030 for k <= 8) and at 10^12, with the term
    count the path rule picks there, or 40 terms where it walks."""
    for count in (1, 3, 9):
        for N in (1, 280, 450, 1860, 3030, 10**12):
            terms = gupta_series._tail_terms(q, count - 1, N, work) or 40
            bern = bernoulli_numbers(terms).values
            expected = tail_sums_per_term(q, count, N, work, bern)
            assert tails.tail_sums(q, count, N, work, bern) == expected, (count, N)


# -- the prefactors as one formula over the table tau -------------------------

POWERS = range(1, 7)
TAU_K_MAX = 256


def test_prefactor_equals_the_printed_formulas():
    """The pair the partial sums read is the printed prefactor reduced, with
    a positive denominator: its numerator's bit length sets their work
    precision, so an unreduced pair would change the printed bytes."""
    for p in POWERS:
        for k in range(TAU_K_MAX + 1):
            printed = printed_prefactor(p, k)
            assert closed_forms.prefactor(p, k) == printed, (p, k)
            pair = (printed.numerator, printed.denominator)
            assert closed_forms.prefactor_pair(p, k) == pair, (p, k)


@pytest.fixture(scope="module")
def fitted_tau():
    """tau_p fitted from the tables at k = 0..9, and the table values at
    k = 0..40 it was fitted and is confirmed on."""
    euler, bern = euler_numbers(43), bernoulli_numbers(43)
    values = {p: [tau_from_tables(p, k, euler, bern) for k in range(41)] for p in POWERS}
    return {p: fit_tau(values[p][:10]) for p in POWERS}, values


def test_tau_fitted_from_the_tables(fitted_tau):
    """The fit through k = 0..9 holds at k = 10..40, and it is the tau table
    of closed_forms at every k <= 256: as both are combinations of the ten
    monomials k^a y^b, agreeing at ten consecutive k makes them one."""
    fits, values = fitted_tau
    for p in POWERS:
        for k in range(10, 41):
            assert poly_value(fits[p], k) == values[p][k], (p, k)
        for k in range(TAU_K_MAX + 1):
            assert poly_value(fits[p], k) == Fraction(*closed_forms.tau_pair(p, k)), (p, k)
    assert fits[5] == {(0, 0): 1, (0, 1): 6, (1, 1): 9, (2, 1): 2}  # 4^(k+1)(2k^2+9k+6) + 1
    # 8 (k+1)(k+2)(k+3)(k+5) / 45
    assert fits[6] == {(a, 0): Fraction(c, 45) for a, c in enumerate((240, 488, 328, 88, 8))}


def test_tau_from_the_lemmas(fitted_tau):
    """Each family's T / D, expanded from the two lemmas, is the fitted tau_p
    coefficient by coefficient, so identity (p, k) holds at every k once the
    lemmas do; with one coefficient perturbed, the polynomial misses the
    tables' tau_p at some k <= 40."""
    fits, values = fitted_tau
    for p in POWERS:
        assert tau_from_lemmas(p) == fits[p], p
        for m in fits[p]:
            perturbed = fits[p] | {m: fits[p][m] + 1}
            assert any(poly_value(perturbed, k) != values[p][k] for k in range(41)), (p, m)


def test_tau_pair_is_tau_to_each_cap():
    """The integer pair verify reads is tau_p(k), with a positive
    denominator, and the paper's printed prefactor gives the same tau, for
    every p and every k up to that family's cap."""
    for p in POWERS:
        for k in range(MAX_INDEX // 2 - p // 2 + 1):
            num, den = closed_forms.tau_pair(p, k)
            n = 2 * (k + p // 2) + 1
            printed = (factorial(n) << (n + 1) * (p % 2)) / printed_prefactor(p, k)
            assert den > 0 and Fraction(num, den) == printed, (p, k)


def test_lemmas_hold_on_the_tables():
    """The trusted base, on every odd n the capped tables reach, and the
    head terms tau subtracts from it are the oracle's."""
    K = MAX_INDEX // 2
    euler, bern = euler_numbers(K), bernoulli_fractions(bernoulli_numbers(K))
    assert LEMMA_HEADS[1] == euler.values[:2] and LEMMA_HEADS[0] == tuple(bern[:3])
    for odd, (common, values) in enumerate(closed_forms._HEADS):
        assert tuple(Fraction(v, common) for v in values) == LEMMA_HEADS[odd], odd
    for n in range(1, 2 * K + 2, 2):
        assert sum(comb(n, 2 * m) * 2 ** (n - 2 * m) * euler.values[m] for m in range(n // 2 + 1)) == 2
        assert sum(comb(n, 2 * m) * 4**m * bern[m] for m in range(n // 2 + 1)) == n
