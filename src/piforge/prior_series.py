"""Prior published series for pi and pi^2 used as convergence baselines.

Four series are implemented:

* a one-parameter family for pi with positive rational parameter mu,
  4 sum_k (1+mu)^-(k+1) sum_m C(k,m) (-1)^m mu^(k-m) / (2m+1);
* pi^2 = 4 sum_k mu_k h_k / k   (mu_k the normalized binomial
  mid-coefficient (2k-1)!!/(2k)!!, h_k the odd harmonic numbers);
* pi^2 = 2 sum_k sigma_k / k    (sigma_n = p_n sum 1/(4k-1) + q_n sum 1/(4k-3)
  with the partial products p_n, q_n of (4k-1)/4k and (4k-3)/4k);
* pi^2 = 3 sum_k mu_k H_k / k   (H_k the harmonic numbers).

No convergence rates are published for these series, so the partial sums
carry no analytic tail estimate; they are plain certified enclosures of the
truncated sums.  The weight recurrences are driven by exact small rationals
folded into interval state one step at a time (one outward rounding per
update), which keeps every enclosure rigorous while staying fast enough for
desk-scale term counts; the exact generators below are the reference
implementations the tests compare against.

The inner sum of the mu-parameterized family is evaluated through the exact
recurrence of J_k = integral_0^1 (mu - x^2)^k dx,

    (2k+1) J_k = (mu-1)^k + 2k mu J_{k-1},    J_0 = 1,

which reproduces the binomial double sum term by term: the k-th term is
4 J_k / (1+mu)^(k+1).  J_k grows like mu^k while the weight shrinks like
(1+mu)^-k, so the partial sum tracks their ratio t_k = J_k / (1+mu)^k and
r^k with r = (mu-1)/(mu+1) instead, both bounded by 1 in absolute value:

    (2k+1) t_k = 2k mu/(1+mu) t_{k-1} + r^k,    t_0 = 1.

Every multiplier in it is below 1 in absolute value, so rounding errors do
not grow from step to step; ``K.bit_length() + 4`` guard bits absorb the K per-step roundings and
the sum 4/(1+mu) sum t_k is rounded outward to the context once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

from .numeric_engine import CertifiedReal, PrecisionContext

__all__ = [
    "HarmonicPair",
    "KolbigWeights",
    "MidBinomial",
    "ak_inner_sum",
    "ak_term_exact",
    "alzer_H_partial",
    "alzer_h_partial",
    "alzer_koumandos_partial",
    "harmonic_pairs",
    "kolbig_partial",
    "kolbig_weights",
    "mid_binomials",
]


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


def alzer_koumandos_partial(
    mu: Fraction | int, K: int, ctx: PrecisionContext
) -> CertifiedReal:
    """Partial sum over k = 0..K of the mu-parameterized series for pi."""
    mu = Fraction(mu)
    if mu <= 0:
        raise ValueError("the parameter mu must be positive")
    if K < 0:
        raise ValueError("K must be >= 0")
    work = PrecisionContext(ctx.precision_bits + K.bit_length() + 4, ctx.guard_bits)
    # mu = a/b, so r = (a-b)/(a+b) and 2k mu/(1+mu) = 2k a/(a+b)
    a, b = mu.numerator, mu.denominator
    r_pow = work.one()
    t = work.one()
    acc = t
    for k in range(1, K + 1):
        r_pow = r_pow.mul_ratio(a - b, a + b)
        t = (t.mul_ratio(2 * k * a, a + b) + r_pow).mul_ratio(1, 2 * k + 1)
        acc = acc + t
    return acc.mul_ratio(4 * b, a + b).rounded_to(ctx)


def alzer_h_partial(K: int, ctx: PrecisionContext) -> CertifiedReal:
    """Partial sum of 4 sum_{k<=K} mu_k h_k / k (odd harmonic weights)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    mu = ctx.one()
    h = ctx.zero()
    acc = ctx.zero()
    for k in range(1, K + 1):
        mu = mu.mul_ratio(2 * k - 1, 2 * k)
        h = h + ctx.from_rational(Fraction(1, 2 * k - 1))
        acc = acc + (mu * h).mul_ratio(4, k)
    return acc


def alzer_H_partial(K: int, ctx: PrecisionContext) -> CertifiedReal:
    """Partial sum of 3 sum_{k<=K} mu_k H_k / k (full harmonic weights)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    mu = ctx.one()
    H = ctx.zero()
    acc = ctx.zero()
    for k in range(1, K + 1):
        mu = mu.mul_ratio(2 * k - 1, 2 * k)
        H = H + ctx.from_rational(Fraction(1, k))
        acc = acc + (mu * H).mul_ratio(3, k)
    return acc


def kolbig_partial(K: int, ctx: PrecisionContext) -> CertifiedReal:
    """Partial sum of 2 sum_{k<=K} sigma_k / k.

    Tracks u_n = p_n sum 1/(4k-1) and v_n = q_n sum 1/(4k-3) through

        u_n = (4n-1)/(4n) u_{n-1} + p_{n-1}/(4n)
        v_n = (4n-3)/(4n) v_{n-1} + q_{n-1}/(4n)

    so each step touches only small exact multipliers.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    p = ctx.one()
    q = ctx.one()
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
