"""Exact coefficient oracles for the classical closed forms, and the one
power-sum kernel behind every partial sum in piforge.

The alternating odd-power sums evaluate to rational multiples of odd powers
of pi through the Euler numbers, and the even-power sums to rational
multiples of even powers of pi through the Bernoulli numbers:

    sum_{m>=1} (-1)^(m+1) / (2m-1)^(2k+1)  =  |E_{2k}| / (2^(2k+2) (2k)!) * pi^(2k+1)
    sum_{m>=1} 1 / m^(2k)                  =  (-1)^(k-1) 2^(2k) B_{2k} / (2 (2k)!) * pi^(2k)

Both coefficient functions return the exact rational together with the pi
exponent, never folding the power into the coefficient.

``power_sums`` brackets the finite left-hand sides

    S_q(N) = sum_{n<=N} sign_n / base_n^q

for several exponents q, q+2, q+4, ... in one pure-integer pass over n:
``divmod(2**work, base**q)`` gives floor(2**work / base**q), and each
further floor division by base**2 gives the floor for the next exponent
exactly (nested floors by integers compose).  A term whose division leaves
a remainder widens the bracket by one unit on the side its sign points to;
exact terms do not widen it, so sums of dyadic terms stay exact.
``gupta_series.partial_sum`` builds all six families on this kernel.

``beta_partial`` and ``zeta_partial`` run the kernel at ``work =
ctx.scale``, which rounds each term outward by at most one unit exactly as
``ctx.from_rational`` would.  They deliberately add no guard bits: their
enclosures, widened by the certified tail (alternating-series bound for the
beta sums, integral bound for the zeta sums), are compared by containment
against the closed forms, and keeping them at the context scale keeps those
intervals identical to a plain per-term interval sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_core import factorial
from .numeric_engine import CertifiedReal, PrecisionContext, TailedInterval
from .special_numbers import BernoulliTable, EulerTable, TableDepthError

__all__ = [
    "PiMultiple",
    "beta_partial",
    "beta_pi_coeff",
    "pi_multiple_interval",
    "power_sums",
    "zeta_partial",
    "zeta_pi_coeff",
]


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
    if not euler.covers(2 * k):
        raise TableDepthError("euler", 2 * k)
    coeff = Fraction(abs(euler.entry(2 * k)), (1 << (2 * k + 2)) * factorial(2 * k))
    return PiMultiple(coeff, 2 * k + 1)


def zeta_pi_coeff(k: int, bern: BernoulliTable) -> PiMultiple:
    """Coefficient of the even-power sum: (-1)^(k-1) 2^(2k) B_{2k} / (2 (2k)!),
    attached to pi^(2k); always positive."""
    if k < 1:
        raise ValueError("k must be >= 1 (the k = 0 sum diverges)")
    if not bern.covers(2 * k):
        raise TableDepthError("bernoulli", 2 * k)
    sign = 1 if k % 2 == 1 else -1
    coeff = sign * (1 << (2 * k)) * bern.entry(2 * k) / (2 * factorial(2 * k))
    return PiMultiple(coeff, 2 * k)


def power_sums(
    alternating: bool, q: int, count: int, N: int, work: int
) -> list[tuple[int, int]]:
    """Integer brackets ``(lo, hi)`` of 2**work * S_{q+2j}(N) for j < count.

    The base sequence is 2n-1 with sign (-1)^(n+1) when ``alternating``,
    else n with sign +1.  Each bracket is at most N units wide."""
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


def beta_partial(k: int, N: int, ctx: PrecisionContext) -> TailedInterval:
    """Partial sum of sum (-1)^(m+1) / (2m-1)^(2k+1) over m <= N.

    The tail bound is the first omitted term (alternating series with
    strictly decreasing magnitudes)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    power = 2 * k + 1
    [(lo, hi)] = power_sums(True, power, 1, N, ctx.scale)
    tail = Fraction(1, (2 * N + 1) ** power)
    return TailedInterval(CertifiedReal(ctx, lo, hi), tail)


def zeta_partial(k: int, N: int, ctx: PrecisionContext) -> TailedInterval:
    """Partial sum of sum 1 / m^(2k) over m <= N.

    The tail bound is the integral estimate N^(1-2k) / (2k - 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    [(lo, hi)] = power_sums(False, 2 * k, 1, N, ctx.scale)
    tail = Fraction(1, (2 * k - 1) * N ** (2 * k - 1))
    return TailedInterval(CertifiedReal(ctx, lo, hi), tail)


def pi_multiple_interval(value: PiMultiple, ctx: PrecisionContext) -> CertifiedReal:
    """Interval evaluation of coeff * pi**power with the context's pi."""
    return ctx.pi_power(value.power).mul_rational(value.coeff)
