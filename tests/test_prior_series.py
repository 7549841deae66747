from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from piforge import prior_series
from piforge.numeric_engine import PrecisionContext
from piforge.prior_series import (
    alzer_H_partials,
    alzer_h_partials,
    alzer_koumandos_partials,
    kolbig_partials,
)

import oracles
from oracles import (
    ak_inner_sum,
    ak_term_exact,
    contains,
    harmonic_pairs,
    hi_of,
    kolbig_weights,
    lo_of,
    mid_binomials,
    mid_of,
    width_of,
)


def take(iterator, count):
    return list(itertools.islice(iterator, count))


def test_mu_recurrence_matches_product_form():
    mus = take(mid_binomials(), 500)
    assert mus[0].value == Fraction(1, 2)
    for item in (mus[0], mus[99], mus[499]):
        k = item.k
        product = math.prod(Fraction(2 * j - 1, 2 * j) for j in range(1, k + 1))
        assert item.value == product
    for prev, item in zip(mus, mus[1:]):
        assert item.value == prev.value * Fraction(2 * item.k - 1, 2 * item.k)
        assert 0 < item.value < prev.value < 1


def test_harmonic_pairs_increasing():
    pairs = take(harmonic_pairs(), 200)
    assert pairs[0].H == 1 and pairs[0].h == 1
    assert pairs[2].H == Fraction(11, 6)
    assert pairs[2].h == 1 + Fraction(1, 3) + Fraction(1, 5)
    for prev, item in zip(pairs, pairs[1:]):
        assert item.H > prev.H and item.h > prev.h


def test_kolbig_weights_exact_values():
    weights = take(kolbig_weights(), 10)
    first = weights[0]
    assert first.p == Fraction(3, 4) and first.q == Fraction(1, 4)
    assert first.sigma == Fraction(1, 2)
    tenth = weights[9]
    # frozen from a direct product evaluation
    assert tenth.p == Fraction(122044923, 268435456)
    assert tenth.q == Fraction(13042315, 268435456)
    for item in weights:
        assert 0 < item.q < item.p < 1


def test_ak_inner_sum_direct_vs_term():
    # k-th term at mu = 1 equals 2^-(k+1) * sum_m C(k,m)(-1)^m/(2m+1)
    for k in range(21):
        direct = sum(
            Fraction(math.comb(k, m) * (-1) ** m, 2 * m + 1) for m in range(k + 1)
        )
        assert ak_inner_sum(Fraction(1), k) == direct
        assert ak_term_exact(Fraction(1), k) == 4 * direct / 2 ** (k + 1)
    # and the integral recurrence reproduces the double sum for other mu
    for mu in (Fraction(1, 2), Fraction(2, 3), Fraction(3)):
        j_val = Fraction(1)
        for k in range(21):
            if k > 0:
                j_val = ((mu - 1) ** k + 2 * k * mu * j_val) / (2 * k + 1)
            assert j_val == ak_inner_sum(mu, k)
    # and the exact partial sums the kernels are checked against below add up its terms
    for mu in (Fraction(1, 5), Fraction(1), Fraction(5), Fraction(2, 3)):
        exact = itertools.accumulate(ak_term_exact(mu, k) for k in range(40))
        assert exact_ak_partials(mu, 40) == list(exact)


def test_partial_intervals_contain_exact_sums(ctx128):
    K = 50
    mus = take(mid_binomials(), K)
    pairs = take(harmonic_pairs(), K)
    weights = take(kolbig_weights(), K)
    exact_h = 4 * sum(mus[i].value * pairs[i].h / (i + 1) for i in range(K))
    exact_H = 3 * sum(mus[i].value * pairs[i].H / (i + 1) for i in range(K))
    exact_kolbig = 2 * sum(weights[i].sigma / (i + 1) for i in range(K))
    assert contains(alzer_h_partials([K], ctx128)[0], exact_h)
    assert contains(alzer_H_partials([K], ctx128)[0], exact_H)
    assert contains(kolbig_partials([K], ctx128)[0], exact_kolbig)
    for mu in (Fraction(1), Fraction(1, 2)):
        exact_ak = sum(ak_term_exact(mu, k) for k in range(K + 1))
        assert contains(alzer_koumandos_partials(mu, [K + 1], ctx128)[0], exact_ak)


def test_ak_tight_for_mu_above_one(ctx128):
    """For mu > 1 the terms are ratios of a growing J_k and a shrinking
    weight; the enclosure must stay near the context's precision."""
    for mu in (Fraction(2), Fraction(5)):
        [value] = alzer_koumandos_partials(mu, [1000], ctx128)
        assert width_of(value) < Fraction(1, 2 ** (ctx128.precision_bits - 8))
        assert abs(mid_of(value) - mid_of(ctx128.pi())) < Fraction(1, 100)
    for mu in (Fraction(3, 2), Fraction(2), Fraction(5)):
        Ns = [1, 2, 8, 31]
        for N, value in zip(Ns, alzer_koumandos_partials(mu, Ns, ctx128)):
            exact = sum(ak_term_exact(mu, k) for k in range(N))
            assert contains(value, exact)


def test_trivial_values(ctx128):
    [v] = alzer_koumandos_partials(Fraction(1), [1], ctx128)
    assert lo_of(v) == hi_of(v) == 2


def test_ak_convergence_windows(ctx128):
    pi = ctx128.pi()
    for mu in (Fraction(1), Fraction(1, 2)):
        [value] = alzer_koumandos_partials(mu, [41], ctx128)
        assert abs(mid_of(value) - mid_of(pi)) < Fraction(1, 1000)


def test_residuals_shrink_tenfold_steps(ctx128):
    pi = ctx128.pi()
    pi2 = ctx128.pi_power(2)
    series = [
        (lambda K: alzer_koumandos_partials(Fraction(1), [K], ctx128)[0], pi),
        (lambda K: alzer_h_partials([K], ctx128)[0], pi2),
        (lambda K: alzer_H_partials([K], ctx128)[0], pi2),
        (lambda K: kolbig_partials([K], ctx128)[0], pi2),
    ]
    for fn, target in series:
        residuals = [abs(mid_of(fn(K)) - mid_of(target)) for K in (10, 100, 1000)]
        assert residuals[0] > residuals[1] > residuals[2]


def test_alzer_h_empirical_rate(ctx128):
    """Residual of the odd-harmonic series behaves like log(K)/sqrt(K):
    calibrating the constant at K=1e3 predicts K=1e4 within a factor of 4.
    (No rate is published for this series; the window is our calibration.)
    """
    import math as math_module

    pi2 = ctx128.pi_power(2)
    resid = {
        K: abs(mid_of(value) - mid_of(pi2))
        for K, value in zip((10**3, 10**4), alzer_h_partials([10**3, 10**4], ctx128))
    }
    model = {K: math_module.log(K) / math_module.sqrt(K) for K in resid}
    constant = float(resid[10**3]) / model[10**3]
    predicted = constant * model[10**4]
    actual = float(resid[10**4])
    assert predicted / 4 < actual < predicted * 4


# read_mu against Fraction, on one grammar for every Python: that of 3.12's
# Fraction(str), written out below, since 3.10's Fraction reads no underscores
# and 3.11's no whitespace beside the bar.  A text the grammar accepts goes to
# Fraction without its underscores and that whitespace, which every supported
# Fraction reads with the same value.  Fraction builds 10^exponent before
# anything bounds it, so for an exponent past twice the digit cap the oracle
# reads the literal with that exponent's digits zeroed: the same grammar, and
# the same mantissa, whose value then has too many digits unless it is zero.
MU_GRAMMAR = re.compile(
    r"""
    \s*[-+]?(?=\d|\.\d)
    (\d*|\d+(_\d+)*)
    (\s*/\s*\d+(_\d+)*|(\.(\d*|\d+(_\d+)*))?(e[-+]?\d+(_\d+)*)?)
    \s*
    """,
    re.VERBOSE | re.IGNORECASE,
)
ZEROED = str.maketrans("123456789٣", "000000000٠")


def read_mu_oracle(text: str):
    """(numerator, denominator) of the mu Fraction reads from ``text``, or
    which refusal read_mu must give: 'read', 'digits' or 'positive'."""
    if not MU_GRAMMAR.fullmatch(text):
        return "read"
    plain = re.sub(r"\s*/\s*", "/", text.replace("_", ""))
    mantissa, e, exponent = plain.lower().partition("e")
    try:
        huge = abs(int(exponent)) > 2 * prior_series.MU_DIGITS
    except ValueError:
        huge = False
    try:
        value = Fraction(mantissa + e + exponent.translate(ZEROED) if huge else plain)
    except (ValueError, ZeroDivisionError):
        return "read"
    if value == 0:
        return "positive"
    if huge or max(abs(value.numerator), value.denominator) >= 10**prior_series.MU_DIGITS:
        return "digits"
    return "positive" if value < 0 else (value.numerator, value.denominator)


@settings(max_examples=400, deadline=None)
@given(st.text(st.sampled_from(list("0123456789٣²_./eE+- ")), max_size=12))
@example("")
@example("+")
@example("5.")
@example(".5")
@example("5.e3")
@example("1_0/3")
@example("٣/2")
@example("1__0")
@example("1e_1")
@example("1/0")
@example("3 / 2")
@example(" -3/ 2 ")
@example("1_0 /3")
@example("1 _0/3")
@example("3. / 2")
@example("1.5/2")
@example("1e2/3")
@example("0e99999")
@example("1e4301")
@example("10e-4301")
@example("100000e-4303")
@example("1e-99999999")
@example("1" * 5000)
def test_read_mu_reads_what_fraction_reads(text):
    where = "series 'alzer-koumandos:mu=..'"
    expected = read_mu_oracle(text)
    try:
        mu = prior_series.read_mu(text, where)
    except ValueError as exc:
        message = {
            "read": f"{where} mu: cannot read {text.strip()!r} as Fraction",
            "digits": f"{where} mu needs a numerator and denominator of at most 4300 digits",
            "positive": f"{where} needs a positive mu (mu > 0)",
        }
        assert str(exc) == message.get(expected)
    else:
        assert (mu.numerator, mu.denominator) == expected


def test_mu_may_be_an_int_a_fraction_or_a_read_pair(ctx128):
    Ns = [1, 10, 100]
    by_pair = alzer_koumandos_partials(prior_series.read_mu("1.5", "mu"), Ns, ctx128)
    assert alzer_koumandos_partials(Fraction(3, 2), Ns, ctx128) == by_pair
    assert alzer_koumandos_partials(prior_series.read_mu("5", "mu"), Ns, ctx128) == (
        alzer_koumandos_partials(5, Ns, ctx128)
    )


def test_mu_validation(ctx128):
    with pytest.raises(ValueError):
        alzer_koumandos_partials(Fraction(0), [5], ctx128)
    with pytest.raises(ValueError):
        alzer_koumandos_partials(Fraction(-1, 2), [5], ctx128)
    with pytest.raises(ValueError):
        alzer_koumandos_partials(Fraction(1), [5, 0], ctx128)
    with pytest.raises(ValueError):
        alzer_h_partials([0], ctx128)
    with pytest.raises(ValueError):
        kolbig_partials([0], ctx128)
    with pytest.raises(ValueError):
        alzer_H_partials([5, 0], ctx128)


def ak_kernel(mu):
    """The mu-family at one mu, and its interval loop of N terms."""
    return (
        lambda Ns, ctx: alzer_koumandos_partials(mu, Ns, ctx),
        lambda N, ctx: oracles.alzer_koumandos_partial(mu, N - 1, ctx),
    )


# The one-sided recurrences against the exact sums and against the interval
# loops of tests/oracles.py, which round every operation outward and so come
# out wider: kernel(Ns, ctx) must enclose the exact sums, overlap the loop
# loop(N, ctx) and be no wider than it.  The mu-family runs at mu = 1/5, whose
# budget is two-sided, and at mu = 5.
KERNELS = {
    "kolbig": (kolbig_partials, oracles.kolbig_partial),
    "alzer-h": (alzer_h_partials, oracles.alzer_h_partial),
    "alzer-H": (alzer_H_partials, oracles.alzer_H_partial),
    "alzer-koumandos:mu=1/5": ak_kernel(Fraction(1, 5)),
    "alzer-koumandos:mu=5": ak_kernel(Fraction(5)),
}
PI2_KERNELS = ("alzer-H", "alzer-h", "kolbig")


def exact_ak_partials(mu, K):
    """The exact partial sums of the mu-family for N = 1..K, by the exact
    recurrence of J_k; test_ak_inner_sum_direct_vs_term checks them against
    the sums of ak_term_exact."""
    j, shift_pow, weight, terms = Fraction(1), Fraction(1), 4 / (1 + mu), []
    for k in range(K):
        if k:
            shift_pow *= mu - 1
            j = (shift_pow + 2 * k * mu * j) / (2 * k + 1)
            weight /= 1 + mu
        terms.append(weight * j)
    return list(itertools.accumulate(terms))


def exact_partials(name, K):
    """The exact partial sums of a baseline for N = 1..K."""
    if name.startswith("alzer-koumandos:mu="):
        return exact_ak_partials(Fraction(name.partition("=")[2]), K)
    if name == "kolbig":
        terms = (2 * w.sigma / w.n for w in kolbig_weights())
    else:
        weight = 4 if name == "alzer-h" else 3
        terms = (
            weight * m.value * (pair.h if name == "alzer-h" else pair.H) / m.k
            for m, pair in zip(mid_binomials(), harmonic_pairs())
        )
    return list(itertools.accumulate(take(terms, K)))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(PI2_KERNELS),
    K=st.integers(1, 400),
    bits=st.sampled_from((128, 1024)),
)
@example(name="kolbig", K=10**4, bits=1024)
@example(name="alzer-h", K=10**4, bits=1024)
@example(name="alzer-H", K=10**4, bits=1024)
def test_pi2_kernels_enclose_and_are_no_wider_than_interval_loops(name, K, bits):
    kernel, oracle = KERNELS[name]
    ctx = PrecisionContext(bits)
    [value] = kernel([K], ctx)
    loop = oracle(K, ctx)
    assert max(value.lo_m, loop.lo_m) <= min(value.hi_m, loop.hi_m)
    assert width_of(value) <= width_of(loop)
    assert value.hi_m - value.lo_m <= 2
    if K <= 400:
        assert contains(value, exact_partials(name, K)[-1])


@settings(max_examples=40, deadline=None)
@given(
    mu=st.fractions(min_value=Fraction(1, 20), max_value=8, max_denominator=20),
    K=st.integers(0, 400),
    bits=st.sampled_from((128, 1024)),
)
@example(mu=Fraction(1, 5), K=10**4, bits=1024)
@example(mu=Fraction(3, 4), K=10**4, bits=1024)
@example(mu=Fraction(1), K=10**4, bits=1024)
@example(mu=Fraction(5), K=10**4, bits=1024)
@example(mu=Fraction(10**6), K=400, bits=128)
@example(mu=Fraction(1, 10**6), K=400, bits=128)
def test_ak_kernel_encloses_and_is_no_wider_than_interval_loop(mu, K, bits):
    """Sums over k = 0..K, so of N = K + 1 terms."""
    ctx = PrecisionContext(bits)
    [value] = alzer_koumandos_partials(mu, [K + 1], ctx)
    loop = oracles.alzer_koumandos_partial(mu, K, ctx)
    assert max(value.lo_m, loop.lo_m) <= min(value.hi_m, loop.hi_m)
    assert width_of(value) <= width_of(loop)
    assert value.hi_m - value.lo_m <= 2
    if K <= 400:
        assert contains(value, exact_ak_partials(mu, K + 1)[-1])


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_pi2_kernels_two_ulps_wide_at_1e5_terms(name):
    kernel, _ = KERNELS[name]
    for value in kernel([10**4, 10**5], PrecisionContext(1024)):
        assert 1 <= value.hi_m - value.lo_m <= 2


# At mu = 1/5 and mu = 5, x % c clears the mu-family's exactness flag at
# k = 0.  At mu = 1 and mu = 3, c = a + b is 2 or 4 and divides the dyadic
# start, so the flag rests on the divisions by 2k + 1 as well.
GUARD_FREE_KERNELS = {
    **KERNELS,
    "alzer-koumandos:mu=1": ak_kernel(Fraction(1)),
    "alzer-koumandos:mu=3": ak_kernel(Fraction(3)),
}


@pytest.mark.parametrize("name", sorted(GUARD_FREE_KERNELS))
def test_pi2_budgets_hold_without_guard_bits(name, monkeypatch):
    """The error budgets are proved for any number of guard bits.  With none,
    the budget spans many units of the context's scale, so containment tests
    the budget itself rather than the slack of the guard bits, and a sum the
    exactness flag wrongly calls exact leaves its enclosure."""
    monkeypatch.setattr(prior_series, "_GUARD", 0)
    kernel, _ = GUARD_FREE_KERNELS[name]
    Ns = list(range(1, 301))
    exact = exact_partials(name, len(Ns))
    for N, value in zip(Ns, kernel(Ns, PrecisionContext(64))):
        assert contains(value, exact[N - 1])


def test_pi2_kernels_exact_at_two_terms(ctx128):
    sums = {
        "kolbig": [1, Fraction(3, 2)],
        "alzer-h": [2, 3],
        "alzer-H": [Fraction(3, 2), Fraction(75, 32)],
    }
    for name in PI2_KERNELS:
        kernel, _ = KERNELS[name]
        assert sums[name] == exact_partials(name, 2)
        values = kernel([1, 2], ctx128)
        assert [(lo_of(v), hi_of(v)) for v in values] == [(x, x) for x in sums[name]]


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_one_pass_answers_each_N_in_the_given_order(name, ctx128):
    kernel, _ = KERNELS[name]
    Ns = [1000, 1, 100, 1000]
    values = kernel(Ns, ctx128)
    assert values == [kernel([N], ctx128)[0] for N in Ns]
    exact = exact_partials(name, max(Ns))
    assert all(contains(v, exact[N - 1]) for v, N in zip(values, Ns))


# The generators against the recurrences as first written, in tests/oracles.py,
# which take every step, one series per pass: the same integers, not just
# enclosures of the same sums.
STOPS = {1, 2, 3, 5, 10, 100, 1000, 3000}
COPRIME_MUS = [(a, b) for a in range(1, 13) for b in range(1, 13) if math.gcd(a, b) == 1]


def settled_at(one, a, b, last):
    """(k, t) at the first step k < last that the mu-family starts from a
    fixed point, r = 0 with t = 0 or t = -1, or None if none does."""
    c = a + b
    r, t = one, 0
    for k in range(last):
        if not r and t in (0, -1):
            return k, t
        t = (2 * k * a * t // c + r) // (2 * k + 1)
        r = (a - b) * r // c
    return None


@pytest.mark.parametrize("scale", [64, 128, 1024])
def test_mu_family_yields_the_brackets_of_every_step(scale):
    one = 1 << scale
    for a, b in COPRIME_MUS:
        expected = list(oracles.mu_family(one, STOPS, a, b))
        assert list(prior_series._mu_family(one, STOPS, a, b)) == expected, (a, b)


def test_the_brackets_cover_the_jump_from_either_fixed_point():
    settles = {
        scale: [settled_at(1 << scale, a, b, max(STOPS)) for a, b in COPRIME_MUS]
        for scale in (64, 128, 1024)
    }
    assert {s[1] for s in settles[64] if s} == {0, -1}
    assert None in settles[1024]  # and rows that step to their last N
    for a, b in ((1, 5), (3, 7)):
        k, t = settled_at(1 << 64, a, b, max(STOPS))
        assert t == -1 and k < 1000


@pytest.mark.parametrize("scale", [64, 128, 1024])
def test_one_alzer_pass_yields_the_brackets_of_two(scale, ctx128):
    one = 1 << scale
    h = list(oracles.mid_binomial_harmonic(one, STOPS, 4, True))
    H = list(oracles.mid_binomial_harmonic(one, STOPS, 3, False))
    both = list(prior_series._mid_binomial(one, STOPS, True, True))
    assert both == [row_h + row_H[1:] for row_h, row_H in zip(h, H)]
    assert [row[:3] for row in prior_series._mid_binomial(one, STOPS, True, False)] == h
    assert [row[:1] + row[3:] for row in prior_series._mid_binomial(one, STOPS, False, True)] == H
    Ns = [3000, 1, 100, 1, 7]
    pair = prior_series.alzer_pair_partials(Ns, ctx128)
    assert pair == [alzer_h_partials(Ns, ctx128), alzer_H_partials(Ns, ctx128)]
