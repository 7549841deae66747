"""Exact reference implementations the test suite compares piforge against.

None of this is called by the library: each function is a slow, direct
evaluation of something piforge computes by a faster route, or an interval
operation that only the tests need.

* ``contains``, ``widened`` and ``quotient``: containment of a rational or
  an enclosure, outward widening by an exact radius, and outward interval
  division, on ``CertifiedReal`` bounds.
* The classical closed forms.  The alternating odd-power sums evaluate to
  rational multiples of odd powers of pi through the Euler numbers, and the
  even-power sums to rational multiples of even powers of pi through the
  Bernoulli numbers:

      sum_{m>=1} (-1)^(m+1) / (2m-1)^(2k+1)  =  |E_{2k}| / (2^(2k+2) (2k)!) * pi^(2k+1)
      sum_{m>=1} 1 / m^(2k)                  =  (-1)^(k-1) 2^(2k) B_{2k} / (2 (2k)!) * pi^(2k)

  Both coefficient functions return the exact rational together with the pi
  exponent, never folding the power into the coefficient.

  ``beta_partial`` and ``zeta_partial`` run ``closed_forms.power_sums`` at
  ``work = ctx.scale``, which rounds each term outward by at most one unit
  exactly as ``ctx.from_rational`` would.  They deliberately add no guard
  bits: their enclosures, widened by the certified tail (alternating-series
  bound for the beta sums, integral bound for the zeta sums), are compared
  by containment against the closed forms, and keeping them at the context
  scale keeps those intervals identical to a plain per-term interval sum.
  They return a ``TailedInterval``, the partial sum with its tail bound.
* ``power_sums_loop``, the per-term ``divmod`` loop that
  ``closed_forms.power_sums`` replaces: it tests every remainder where the
  kernel sums whole blocks and counts the inexact terms.
* ``printed_prefactor``, the paper's six prefactors as printed, one
  formula per power: the reference of ``closed_forms.prefactor`` and of the
  ``Fraction`` oracle of each check of ``exact_verifier.verify_grid``.
* tau_p(k) = 2^((n+1) [p odd]) n! / prefactor(p, k) twice more, each
  independent of ``closed_forms.tau``: ``fit_tau`` solves for it as a
  polynomial in k and y = 4^(k+1) from the tables, by exact Gaussian
  elimination, and ``tau_from_lemmas`` expands it from the two classical
  lemmas the verifier's dot products reduce to.
* ``arctan_inv_bracket``, an exact bracket of arctan(1/q) from two partial
  sums of its Taylor series, the reference of the Machin kernel.
* The inner polynomial of the six families and the numeric residual of a
  partial sum against pi^p.
* ``hurwitz_tail`` and ``hurwitz_row``, the tails R_q(N) and a family's
  partial sum at any N from mpmath's Hurwitz zeta and digamma functions:
  the independent reference of ``closed_forms.tail_sums`` and of the tail
  path of ``gupta_series.partial_sum``.
* The exact weight generators of the four baseline series, and their
  partial sums as ``CertifiedReal`` loops, one interval operation at a time:
  the slow, wider oracle of the one-sided recurrences of ``prior_series``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

import pytest

from piforge.closed_forms import power_sums
from piforge.exact_core import factorial
from piforge.exact_verifier import required_table_k
from piforge.gupta_series import partial_sum
from piforge.numeric_engine import CertifiedReal, PrecisionContext
from piforge.special_numbers import BernoulliTable, EulerTable, TableDepthError

# The classical coefficients c_p of pi^p = c_p * S_p(infinity), printed in
# the paper as the k = 0 limits of the six prefactors.
CLASSICAL_COEFF = {
    1: Fraction(4),
    2: Fraction(6),
    3: Fraction(32),
    4: Fraction(90),
    5: Fraction(1536, 5),
    6: Fraction(945),
}


def contains(x: CertifiedReal, value: CertifiedReal | Fraction | int) -> bool:
    """Whether x encloses an exact rational, or every point of an enclosure
    of the same context scale."""
    if isinstance(value, CertifiedReal):
        x._check(value)
        return x.lo_m <= value.lo_m and value.hi_m <= x.hi_m
    return x.lo <= Fraction(value) <= x.hi


def widened(x: CertifiedReal, radius: Fraction | int) -> CertifiedReal:
    """x grown outward by an exact nonnegative radius."""
    r = Fraction(radius)
    if r < 0:
        raise ValueError("widening radius must be >= 0")
    d = -(-(r.numerator << x.ctx.scale) // r.denominator)
    return CertifiedReal(x.ctx, x.lo_m - d, x.hi_m + d)


def quotient(x: CertifiedReal, y: CertifiedReal) -> CertifiedReal:
    """x / y with each bound rounded outward to the unit, for y not
    containing zero."""
    x._check(y)
    if y.lo_m <= 0 <= y.hi_m:
        raise ZeroDivisionError("division by interval containing zero")
    scale = x.ctx.scale
    corners = [(a << scale, b) for a in (x.lo_m, x.hi_m) for b in (y.lo_m, y.hi_m)]
    lo = min(a // b for a, b in corners)
    hi = max(-(-a // b) for a, b in corners)
    return CertifiedReal(x.ctx, lo, hi)


@dataclass(frozen=True)
class TailedInterval:
    """A truncated-series enclosure with its certified tail bound attached.

    ``partial`` encloses the finite sum that was actually evaluated; ``tail``
    bounds the absolute value of everything omitted, so ``enclosure`` is a
    certified enclosure of the full series limit.
    """

    partial: CertifiedReal
    tail: Fraction

    @property
    def enclosure(self) -> CertifiedReal:
        return widened(self.partial, self.tail)


@dataclass(frozen=True)
class PiMultiple:
    """The exact value coeff * pi**power."""

    coeff: Fraction
    power: int


def beta_pi_coeff(k: int, euler: EulerTable) -> PiMultiple:
    """Coefficient of the alternating odd-power sum: |E_{2k}| / (2^(2k+2) (2k)!),
    attached to pi^(2k+1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if len(euler.values) <= k:
        raise TableDepthError("euler", 2 * k)
    coeff = Fraction(abs(euler.values[k]), (1 << (2 * k + 2)) * factorial(2 * k))
    return PiMultiple(coeff, 2 * k + 1)


def zeta_pi_coeff(k: int, bern: BernoulliTable) -> PiMultiple:
    """Coefficient of the even-power sum: (-1)^(k-1) 2^(2k) B_{2k} / (2 (2k)!),
    attached to pi^(2k); always positive."""
    if k < 1:
        raise ValueError("k must be >= 1 (the k = 0 sum diverges)")
    if len(bern.values) <= k:
        raise TableDepthError("bernoulli", 2 * k)
    sign = 1 if k % 2 == 1 else -1
    coeff = sign * (1 << (2 * k)) * bern.values[k] / (2 * factorial(2 * k))
    return PiMultiple(coeff, 2 * k)


def beta_partial(k: int, N: int, ctx: PrecisionContext) -> TailedInterval:
    """Partial sum of sum (-1)^(m+1) / (2m-1)^(2k+1) over m <= N.

    The tail bound is the first omitted term (alternating series with
    strictly decreasing magnitudes)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    power = 2 * k + 1
    [(lo, hi)] = power_sums(power, 1, N, ctx.scale)
    tail = Fraction(1, (2 * N + 1) ** power)
    return TailedInterval(CertifiedReal(ctx, lo, hi), tail)


def zeta_partial(k: int, N: int, ctx: PrecisionContext) -> TailedInterval:
    """Partial sum of sum 1 / m^(2k) over m <= N.

    The tail bound is the integral estimate N^(1-2k) / (2k - 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    [(lo, hi)] = power_sums(2 * k, 1, N, ctx.scale)
    tail = Fraction(1, (2 * k - 1) * N ** (2 * k - 1))
    return TailedInterval(CertifiedReal(ctx, lo, hi), tail)


def power_sums_loop(
    alternating: bool, q: int, count: int, N: int, work: int
) -> list[tuple[int, int]]:
    """Reference for ``closed_forms.power_sums``: one ``divmod`` per term and
    exponent, and a term widens its bracket when any remainder is nonzero."""
    one = 1 << work
    lo = [0] * count
    hi = [0] * count
    for n in range(1, N + 1):
        base = 2 * n - 1 if alternating else n
        negative = alternating and n % 2 == 0
        square = base * base
        f, r = divmod(one, base**q)
        inexact = r != 0
        for j in range(count):
            if j:
                f, r = divmod(f, square)
                inexact = inexact or r != 0
            if negative:
                lo[j] -= f + inexact
                hi[j] -= f
            else:
                lo[j] += f
                hi[j] += f + inexact
    return list(zip(lo, hi))


def pi_multiple_interval(value: PiMultiple, ctx: PrecisionContext) -> CertifiedReal:
    """Interval evaluation of coeff * pi**power with the context's pi."""
    coeff = value.coeff
    return ctx.pi_power(value.power).mul_ratio(coeff.numerator, coeff.denominator)


def reduction_summands(p, k, euler=None, bern=None) -> list[Fraction]:
    """Fraction oracle: the signed summands (-1)^j c(j+s) / (2k-2j+1)! for
    j = 0..k, with c the closed-form coefficient of the odd-power (Euler)
    or even-power (Bernoulli) sum."""
    s = required_table_k(p, k) - k
    if p % 2 == 1:
        coeff = lambda m: beta_pi_coeff(m, euler).coeff
    else:
        coeff = lambda m: zeta_pi_coeff(m, bern).coeff
    return [
        (-1) ** j * coeff(j + s) / factorial(2 * k - 2 * j + 1) for j in range(k + 1)
    ]


def printed_prefactor(p: int, k: int) -> Fraction:
    """The exact rational multiplier of family p at truncation order k, one
    formula per power as the paper prints them."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if p == 1:
        return Fraction((1 << (2 * k + 2)) * factorial(2 * k + 1))
    if p == 3:
        return Fraction(
            (1 << (2 * k + 4)) * factorial(2 * k + 3), (1 << (2 * k + 2)) - 1
        )
    if p == 5:
        den = ((1 << (2 * k + 2)) * (2 * k * k + 9 * k + 6)) + 1
        return Fraction((1 << (2 * k + 6)) * factorial(2 * k + 5), den)
    if p == 2:
        return Fraction(2 * (2 * k + 3) * factorial(2 * k + 1))
    if p == 4:
        return Fraction(6 * (2 * k + 5) * (2 * k + 3) * factorial(2 * k + 1))
    if p == 6:
        return Fraction(
            45 * (2 * k + 7) * (2 * k + 5) * (2 * k + 3) * factorial(2 * k + 1),
            k + 5,
        )
    raise ValueError(f"power p must be in 1..6, got {p}")


def oracle_ratio(p, k, euler=None, bern=None) -> Fraction:
    """The printed prefactor times the sum of the oracle summands: 1 iff the
    identity holds."""
    return printed_prefactor(p, k) * sum(reduction_summands(p, k, euler, bern))


# -- tau_p(k) from the tables and from the lemmas ----------------------------
#
# A polynomial in k and y = 4^(k+1) is a dict {(a, b): c} of its nonzero
# coefficients c of k^a y^b.

TAU_MONOMIALS = [(a, b) for b in (0, 1) for a in range(5)]


def tau_from_tables(p: int, k: int, euler, bern) -> Fraction:
    """2^((n+1) [p odd]) n! times the sum of the oracle summands,
    n = 2k + 2 floor(p/2) + 1: tau_p(k) wherever identity (p, k) holds."""
    n = 2 * required_table_k(p, k) + 1
    return (factorial(n) << (n + 1) * (p % 2)) * sum(reduction_summands(p, k, euler, bern))


def poly_value(poly: dict, k: int) -> Fraction:
    """The polynomial at k, with y = 4^(k+1)."""
    y = 4 ** (k + 1)
    return sum((c * k**a * y**b for (a, b), c in poly.items()), Fraction(0))


def fit_tau(values: list[Fraction]) -> dict:
    """The one polynomial over ``TAU_MONOMIALS`` (k^a y^b, a <= 4, b <= 1)
    that takes the ten ``values`` at k = 0..9, by exact Gaussian elimination
    over Q.  The ten monomials solve one linear recurrence of order ten, with
    characteristic polynomial (x - 1)^5 (x - 4)^5, so their values at ten
    consecutive k are independent and the fit is unique."""
    size = len(TAU_MONOMIALS)
    rows = [
        [Fraction(k**a * 4 ** ((k + 1) * b)) for a, b in TAU_MONOMIALS] + [Fraction(v)]
        for k, v in enumerate(values)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * z for x, z in zip(rows[r], rows[col])]
    return {m: row[-1] for m, row in zip(TAU_MONOMIALS, rows) if row[-1]}


def _poly_add(f: dict, g: dict, scale=1) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + scale * c
    return {m: c for m, c in out.items() if c}


def _poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a, b), c in f.items():
        for (a2, b2), c2 in g.items():
            out[a + a2, b + b2] = out.get((a + a2, b + b2), 0) + c * c2
    return {m: c for m, c in out.items() if c}


# E_0, E_2 and B_0, B_2, B_4: every head term the six families subtract
LEMMA_HEADS = {1: (Fraction(1), Fraction(-1)), 0: (Fraction(1), Fraction(1, 6), Fraction(-1, 30))}


def tau_from_lemmas(p: int) -> dict:
    """T / D of identity (p, k) as a polynomial in k and y = 4^(k+1):
    sign (lemma - heads) / 2, with n = 2k + 2s + 1, s = floor(p/2), the
    sign (-1)^s for odd p and (-1)^(s-1) for even p, and the lemmas

        sum_m C(n, 2m) 2^(n-2m) E_2m = 2,   sum_m C(n, 2m) 4^m B_2m = n

    for odd n, from sech x sinh 2x = 2 sinh x and x coth x sinh x = x cosh x,
    whose first s terms are the heads.  For odd p, 2^(n-2m) = 2^(2s-1-2m) y."""
    s, odd = p // 2, p % 2
    n = {(1, 0): Fraction(2), (0, 0): Fraction(2 * s + 1)}
    total = {(0, 0): Fraction(2)} if odd else n
    for m in range(s):
        head = {(0, 0): LEMMA_HEADS[odd][m] / factorial(2 * m)}
        for i in range(2 * m):  # C(n, 2m) = n (n-1) ... (n-2m+1) / (2m)!
            head = _poly_mul(head, _poly_add(n, {(0, 0): Fraction(-i)}))
        power = {(0, 1): Fraction(2 ** (2 * s - 1 - 2 * m))} if odd else {(0, 0): Fraction(4**m)}
        total = _poly_add(total, _poly_mul(head, power), -1)
    sign = (-1) ** (s + odd + 1)
    return {m: sign * c / 2 for m, c in total.items()}


def inner_poly(k: int, x: Fraction) -> Fraction:
    """sum_{j=0}^{k} (-x)^j / (2k-2j+1)! in exact rationals, by Horner over j."""
    if k < 0:
        raise ValueError("k must be >= 0")
    x = Fraction(x)
    acc = Fraction(0)
    for j in range(k, -1, -1):
        acc = Fraction(1, factorial(2 * k - 2 * j + 1)) - x * acc
    return acc


def _hurwitz(mpmath, q, a):
    """zeta(q, a), with -digamma(a) in its place at q = 1, where each sum
    diverges but the differences taken here do not."""
    return -mpmath.digamma(a) if q == 1 else mpmath.zeta(q, a)


def _tail(mpmath, alternating: bool, q: int, N: int):
    """R_q(N) = sum_{n>N} sign_n / base_n^q at mpmath's working precision.
    The alternating sum past N splits by the parity of n into two Hurwitz
    sums of step 4 in the odd bases 2N+1, 2N+5, ... and 2N+3, 2N+7, ..."""
    if not alternating:
        return mpmath.zeta(q, N + 1)
    if q == 1 and N == 0:  # (psi(3/4) - psi(1/4)) / 4 = pi cot(pi/4) / 4 (DLMF 5.5.4)
        return mpmath.pi / 4  # digamma at 1/4 takes 40 s at 9,000 bits
    a, b = mpmath.mpf(2 * N + 1) / 4, mpmath.mpf(2 * N + 3) / 4
    return (-1) ** N * (_hurwitz(mpmath, q, a) - _hurwitz(mpmath, q, b)) / mpmath.mpf(4) ** q


def _exact(value) -> Fraction:
    man, exp = value.man_exp  # the mantissa is unsigned
    return (-1 if value < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def hurwitz_tail(alternating: bool, q: int, N: int, bits: int) -> Fraction:
    """The tail R_q(N) of ``closed_forms.tail_sums`` from mpmath's Hurwitz
    zeta (digamma at q = 1) at ``bits`` bits, as an exact rational."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(bits):
        return _exact(_tail(mpmath, alternating, q, N))


def hurwitz_row(p: int, k: int, N: int, bits: int) -> Fraction:
    """The row partial_sum(p, k, N) in mpmath at ``bits`` bits, as an exact
    rational, from Hurwitz zeta values at any N, independent of the
    power-sum kernels and of their tails: S_q(N) = R_q(0) - R_q(N), with
    R_q(0) = zeta(q) for even p and 4^-q (zeta(q, 1/4) - zeta(q, 3/4)),
    digamma at q = 1, for odd p.  The row is then
    prefactor * sum_j (-1)^j pi^(-2j) S_(p+2j)(N) / (2k-2j+1)!."""
    mpmath = pytest.importorskip("mpmath")
    alternating = p % 2 == 1
    pref = printed_prefactor(p, k)
    with mpmath.workprec(bits):
        total = sum(
            (-1 / mpmath.pi**2) ** j
            * (_tail(mpmath, alternating, q, 0) - _tail(mpmath, alternating, q, N))
            / factorial(2 * k - 2 * j + 1)
            for j, q in enumerate(range(p, p + 2 * k + 1, 2))
        )
        return _exact(total * pref.numerator / pref.denominator)


def arctan_inv_bracket(q: int, work: int) -> tuple[Fraction, Fraction]:
    """Exact bounds lo < arctan(1/q) < hi with hi - lo < 2^(-2 work), q >= 2:
    two consecutive partial sums S_i of sum_i (-1)^i / ((2i+1) q^(2i+1)),
    whose terms fall, so that S_(2m+1) < arctan(1/q) < S_(2m).  It stops at
    the first term below 2^(-2 work)."""
    bound = Fraction(1, 1 << 2 * work)
    total, i = Fraction(0), 0
    while True:
        term = Fraction(1, (2 * i + 1) * q ** (2 * i + 1))
        previous, total = total, total - term if i % 2 else total + term
        if term < bound:
            return (total, previous) if i % 2 else (previous, total)
        i += 1


def residual_numeric(p: int, k: int, N: int, ctx: PrecisionContext) -> CertifiedReal:
    """Certified interval for partial_sum(p, k, N) / pi^p - 1."""
    value = partial_sum(p, k, N, ctx)
    return quotient(value, ctx.pi_power(p)) - ctx.from_rational(1)


@dataclass(frozen=True)
class MidBinomial:
    """mu_k = (1*3*5*...*(2k-1)) / (2*4*6*...*2k), strictly decreasing in k."""

    k: int
    value: Fraction


@dataclass(frozen=True)
class HarmonicPair:
    """H_n = sum_{k<=n} 1/k and h_n = sum_{k<=n} 1/(2k-1)."""

    n: int
    H: Fraction
    h: Fraction


@dataclass(frozen=True)
class KolbigWeights:
    """p_n, q_n partial products and the combined weight sigma_n."""

    n: int
    p: Fraction
    q: Fraction
    sigma: Fraction


def mid_binomials() -> Iterator[MidBinomial]:
    """Exact mu_k for k = 1, 2, ... via mu_k = mu_{k-1} (2k-1)/(2k)."""
    value = Fraction(1)
    k = 0
    while True:
        k += 1
        value *= Fraction(2 * k - 1, 2 * k)
        yield MidBinomial(k, value)


def harmonic_pairs() -> Iterator[HarmonicPair]:
    """Exact (H_n, h_n) for n = 1, 2, ..."""
    H = Fraction(0)
    h = Fraction(0)
    n = 0
    while True:
        n += 1
        H += Fraction(1, n)
        h += Fraction(1, 2 * n - 1)
        yield HarmonicPair(n, H, h)


def kolbig_weights() -> Iterator[KolbigWeights]:
    """Exact (p_n, q_n, sigma_n) for n = 1, 2, ..."""
    p = Fraction(1)
    q = Fraction(1)
    s1 = Fraction(0)
    s2 = Fraction(0)
    n = 0
    while True:
        n += 1
        p *= Fraction(4 * n - 1, 4 * n)
        q *= Fraction(4 * n - 3, 4 * n)
        s1 += Fraction(1, 4 * n - 1)
        s2 += Fraction(1, 4 * n - 3)
        yield KolbigWeights(n, p, q, p * s1 + q * s2)


def ak_inner_sum(mu: Fraction, k: int) -> Fraction:
    """Direct exact evaluation of sum_{m=0}^{k} C(k,m) (-1)^m mu^(k-m) / (2m+1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    total = Fraction(0)
    for m in range(k + 1):
        total += Fraction(
            (-1) ** m * comb(k, m) * mu.numerator ** (k - m),
            (2 * m + 1) * mu.denominator ** (k - m),
        )
    return total


def ak_term_exact(mu: Fraction, k: int) -> Fraction:
    """Exact k-th term 4 * inner_sum / (1+mu)^(k+1) of the mu-family."""
    return 4 * ak_inner_sum(mu, k) / (1 + mu) ** (k + 1)


# -- the baseline series as interval loops -----------------------------------


def alzer_koumandos_partial(
    mu: Fraction | int, K: int, ctx: PrecisionContext
) -> CertifiedReal:
    """Partial sum over k = 0..K of the mu-parameterized series for pi."""
    mu = Fraction(mu)
    if mu <= 0:
        raise ValueError("the parameter mu must be positive")
    if K < 0:
        raise ValueError("K must be >= 0")
    work = PrecisionContext(ctx.precision_bits + K.bit_length() + 4)
    # mu = a/b, so r = (a-b)/(a+b) and 2k mu/(1+mu) = 2k a/(a+b)
    a, b = mu.numerator, mu.denominator
    r_pow = work.from_rational(1)
    t = work.from_rational(1)
    acc = t
    for k in range(1, K + 1):
        r_pow = r_pow.mul_ratio(a - b, a + b)
        t = (t.mul_ratio(2 * k * a, a + b) + r_pow).mul_ratio(1, 2 * k + 1)
        acc = acc + t
    return acc.mul_ratio(4 * b, a + b).rounded_to(ctx)


def _mid_binomial_harmonic_partial(
    K: int, ctx: PrecisionContext, weight: int, odd: bool
) -> CertifiedReal:
    """weight * sum_{k<=K} mu_k h_k / k, where h_k sums 1/(2i-1) over i <= k
    when ``odd`` and 1/i otherwise."""
    if K < 1:
        raise ValueError("K must be >= 1")
    mu = ctx.from_rational(1)
    h = ctx.zero()
    acc = ctx.zero()
    for k in range(1, K + 1):
        mu = mu.mul_ratio(2 * k - 1, 2 * k)
        h = h + ctx.from_rational(Fraction(1, 2 * k - 1 if odd else k))
        acc = acc + (mu * h).mul_ratio(weight, k)
    return acc


def alzer_h_partial(K: int, ctx: PrecisionContext) -> CertifiedReal:
    """Partial sum of 4 sum_{k<=K} mu_k h_k / k (odd harmonic weights)."""
    return _mid_binomial_harmonic_partial(K, ctx, 4, odd=True)


def alzer_H_partial(K: int, ctx: PrecisionContext) -> CertifiedReal:
    """Partial sum of 3 sum_{k<=K} mu_k H_k / k (full harmonic weights)."""
    return _mid_binomial_harmonic_partial(K, ctx, 3, odd=False)


def kolbig_partial(K: int, ctx: PrecisionContext) -> CertifiedReal:
    """Partial sum of 2 sum_{k<=K} sigma_k / k.

    Tracks u_n = p_n sum 1/(4k-1) and v_n = q_n sum 1/(4k-3) through

        u_n = (4n-1)/(4n) u_{n-1} + p_{n-1}/(4n)
        v_n = (4n-3)/(4n) v_{n-1} + q_{n-1}/(4n)

    so each step touches only small exact multipliers.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    p = ctx.from_rational(1)
    q = ctx.from_rational(1)
    u = ctx.zero()
    v = ctx.zero()
    acc = ctx.zero()
    for n in range(1, K + 1):
        u = u.mul_ratio(4 * n - 1, 4 * n) + p.mul_ratio(1, 4 * n)
        v = v.mul_ratio(4 * n - 3, 4 * n) + q.mul_ratio(1, 4 * n)
        p = p.mul_ratio(4 * n - 1, 4 * n)
        q = q.mul_ratio(4 * n - 3, 4 * n)
        acc = acc + (u + v).mul_ratio(2, n)
    return acc
