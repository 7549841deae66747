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
truncated sums.  Each recurrence runs on plain integers: every running
quantity is a pair of fixed-point mantissas, the lower bound and the negated
upper bound, so every outward rounding is a floor division.  A step does the
same divisions and shifts, in the same order, as ``CertifiedReal.mul_ratio``,
``*``, ``+`` and ``PrecisionContext.from_rational`` would, so the bounds are
the ones interval arithmetic gives, bit for bit; only the result is built as
a ``CertifiedReal``.

The three pi^2 series take a list of term counts and make one pass up to
the largest, keeping the sum at each requested count.  The mu-family sums
to one K per call, because its working precision grows with K.

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

from fractions import Fraction

from .numeric_engine import CertifiedReal, PrecisionContext

__all__ = [
    "alzer_H_partials",
    "alzer_h_partials",
    "alzer_koumandos_partial",
    "kolbig_partials",
]


def alzer_koumandos_partial(
    mu: Fraction | int, K: int, ctx: PrecisionContext
) -> CertifiedReal:
    """Partial sum over k = 0..K of the mu-parameterized series for pi.

    The working precision grows with K, so one pass cannot serve several K
    with the same bounds; each K is summed on its own.
    """
    mu = Fraction(mu)
    if mu <= 0:
        raise ValueError("the parameter mu must be positive")
    if K < 0:
        raise ValueError("K must be >= 0")
    guard = K.bit_length() + 4
    one = 1 << (ctx.scale + guard)
    # mu = a/b, so r = (a-b)/(a+b) and 2k mu/(1+mu) = 2k a/(a+b)
    a, b = mu.numerator, mu.denominator
    r_lo = t_lo = acc_lo = one
    r_nh = t_nh = acc_nh = -one
    for k in range(1, K + 1):
        r_lo, r_nh = r_lo * abs(a - b) // (a + b), r_nh * abs(a - b) // (a + b)
        if a < b:  # r < 0 swaps the bounds
            r_lo, r_nh = r_nh, r_lo
        t_lo = (t_lo * (2 * k * a) // (a + b) + r_lo) // (2 * k + 1)
        t_nh = (t_nh * (2 * k * a) // (a + b) + r_nh) // (2 * k + 1)
        acc_lo += t_lo
        acc_nh += t_nh
    lo = acc_lo * (4 * b) // (a + b) >> guard
    nh = acc_nh * (4 * b) // (a + b) >> guard
    return CertifiedReal(ctx, lo, -nh)


def _stops(Ns: list[int]) -> set[int]:
    """The distinct term counts of Ns, each of which must be >= 1."""
    if min(Ns) < 1:
        raise ValueError("K must be >= 1")
    return set(Ns)


def _mid_binomial_harmonic_partials(
    Ns: list[int], ctx: PrecisionContext, weight: int, odd: bool
) -> list[CertifiedReal]:
    """weight * sum_{k<=K} mu_k h_k / k for each K in Ns, where h_k sums
    1/(2i-1) over i <= k when ``odd`` and 1/i otherwise."""
    stops = _stops(Ns)
    scale = ctx.scale
    one = 1 << scale
    neg_one = -one
    mu_lo, mu_nh = one, neg_one
    h_lo = h_nh = acc_lo = acc_nh = 0
    at = {}
    for k in range(1, max(stops) + 1):
        mu_lo = mu_lo * (2 * k - 1) // (2 * k)
        mu_nh = mu_nh * (2 * k - 1) // (2 * k)
        den = 2 * k - 1 if odd else k
        h_lo += one // den
        h_nh += neg_one // den
        # mu and h are >= 0, so their product pairs lower with lower bounds
        acc_lo += (mu_lo * h_lo >> scale) * weight // k
        acc_nh += (-(mu_nh * h_nh) >> scale) * weight // k
        if k in stops:
            at[k] = CertifiedReal(ctx, acc_lo, -acc_nh)
    return [at[K] for K in Ns]


def alzer_h_partials(Ns: list[int], ctx: PrecisionContext) -> list[CertifiedReal]:
    """Partial sums of 4 sum_{k<=K} mu_k h_k / k (odd harmonic weights), one
    for each K in Ns."""
    return _mid_binomial_harmonic_partials(Ns, ctx, 4, odd=True)


def alzer_H_partials(Ns: list[int], ctx: PrecisionContext) -> list[CertifiedReal]:
    """Partial sums of 3 sum_{k<=K} mu_k H_k / k (full harmonic weights), one
    for each K in Ns."""
    return _mid_binomial_harmonic_partials(Ns, ctx, 3, odd=False)


def kolbig_partials(Ns: list[int], ctx: PrecisionContext) -> list[CertifiedReal]:
    """Partial sums of 2 sum_{k<=K} sigma_k / k, one for each K in Ns.

    Tracks u_n = p_n sum 1/(4k-1) and v_n = q_n sum 1/(4k-3) through

        u_n = (4n-1)/(4n) u_{n-1} + p_{n-1}/(4n)
        v_n = (4n-3)/(4n) v_{n-1} + q_{n-1}/(4n)

    so each step touches only small exact multipliers.
    """
    stops = _stops(Ns)
    one = 1 << ctx.scale
    p_lo = q_lo = one
    p_nh = q_nh = -one
    u_lo = u_nh = v_lo = v_nh = acc_lo = acc_nh = 0
    at = {}
    for n in range(1, max(stops) + 1):
        d = 4 * n
        u_lo = u_lo * (d - 1) // d + p_lo // d
        u_nh = u_nh * (d - 1) // d + p_nh // d
        v_lo = v_lo * (d - 3) // d + q_lo // d
        v_nh = v_nh * (d - 3) // d + q_nh // d
        p_lo, p_nh = p_lo * (d - 1) // d, p_nh * (d - 1) // d
        q_lo, q_nh = q_lo * (d - 3) // d, q_nh * (d - 3) // d
        acc_lo += (u_lo + v_lo) * 2 // n
        acc_nh += (u_nh + v_nh) * 2 // n
        if n in stops:
            at[n] = CertifiedReal(ctx, acc_lo, -acc_nh)
    return [at[K] for K in Ns]
