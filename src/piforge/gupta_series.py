"""The six series families for pi, pi^2, ..., pi^6 and their classical limits.

Every family shares one shape: an outer sum over a base sequence (odd
denominators 2n-1 with alternating sign for the odd powers, plain integers n
with positive sign for the even powers), an exact rational prefactor
depending on the truncation order k, and an inner polynomial

    sum_{j=0}^{k} (-x)^j / (2k - 2j + 1)!

evaluated at x = 1 / (base^2 pi^2).  At k = 0 the prefactors collapse to the
classical coefficients 4, 6, 32, 90, 1536/5, 945.

Numeric evaluation deliberately uses the independent pi enclosure from
``numeric_engine``: these series are representations of powers of pi, not
bootstrap algorithms for it, and feeding them their own output would make
every convergence measurement circular.

Partial sums add their terms one after another.  Interval addition is exact
integer addition of the endpoint mantissas, so the result does not depend on
the order of the terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_core import factorial
from .numeric_engine import CertifiedReal, PrecisionContext, TailedInterval

__all__ = [
    "CLASSICAL_COEFF",
    "FamilySpec",
    "SeriesTerm",
    "classical_partial",
    "family_spec",
    "inner_poly",
    "partial_sum",
    "prefactor",
    "tail_bound",
    "term",
]

CLASSICAL_COEFF = {
    1: Fraction(4),
    2: Fraction(6),
    3: Fraction(32),
    4: Fraction(90),
    5: Fraction(1536, 5),
    6: Fraction(945),
}

# Rational lower bound on pi (a continued-fraction convergent), used only to
# keep analytic tail bounds valid: 1/pi^2 <= (106/333)^2.
PI_LOWER = Fraction(333, 106)


def prefactor(p: int, k: int) -> Fraction:
    """Exact rational multiplier of family p at truncation order k."""
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


def inner_weights(k: int) -> tuple[Fraction, ...]:
    """w_j = 1 / (2k - 2j + 1)! for j = 0..k."""
    return tuple(Fraction(1, factorial(2 * k - 2 * j + 1)) for j in range(k + 1))


@dataclass(frozen=True)
class FamilySpec:
    """Descriptor of one series family at one truncation order."""

    p: int
    k: int
    prefactor: Fraction
    inner_weights: tuple[Fraction, ...]
    alternating: bool  # odd powers sum over 2n-1 with sign (-1)^(n+1)


def family_spec(p: int, k: int) -> FamilySpec:
    return FamilySpec(p, k, prefactor(p, k), inner_weights(k), p % 2 == 1)


@dataclass(frozen=True)
class SeriesTerm:
    n: int
    value: CertifiedReal


def inner_poly(k: int, x: Fraction | CertifiedReal):
    """sum_{j=0}^{k} (-x)^j / (2k-2j+1)! in the arithmetic of ``x``.

    Horner evaluation over j keeps interval growth to one multiply and one
    subtract per degree; rational input stays exact.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    weights = inner_weights(k)
    if isinstance(x, CertifiedReal):
        ctx = x.ctx
        acc = ctx.from_rational(weights[k])
        for j in range(k - 1, -1, -1):
            acc = ctx.from_rational(weights[j]) - x * acc
        return acc
    x = Fraction(x)
    acc = weights[k]
    for j in range(k - 1, -1, -1):
        acc = weights[j] - x * acc
    return acc


def _term_value(
    spec: FamilySpec,
    n: int,
    ctx: PrecisionContext,
    inv_pi2: CertifiedReal,
    weight_ints: tuple[CertifiedReal, ...],
) -> CertifiedReal:
    if spec.alternating:
        base = 2 * n - 1
        outer = Fraction(1 if n % 2 == 1 else -1, base**spec.p)
    else:
        base = n
        outer = Fraction(1, base**spec.p)
    k = spec.k
    if k == 0:
        return ctx.from_rational(spec.prefactor * outer)
    x = inv_pi2.mul_ratio(1, base * base)
    acc = weight_ints[k]
    for j in range(k - 1, -1, -1):
        acc = weight_ints[j] - x * acc
    return acc.mul_rational(spec.prefactor * outer)


def term(p: int, k: int, n: int, ctx: PrecisionContext) -> SeriesTerm:
    """The n-th summand of family (p, k) as a certified interval."""
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = family_spec(p, k)
    inv_pi2 = ctx.inv_pi_squared()
    weight_ints = tuple(ctx.from_rational(w) for w in spec.inner_weights)
    return SeriesTerm(n, _term_value(spec, n, ctx, inv_pi2, weight_ints))


def tail_bound(p: int, k: int, N: int) -> Fraction:
    """Certified upper bound on the absolute series tail beyond N terms.

    Odd p: alternating-series bound on the leading part of the inner
    polynomial plus integral bounds on the x^j corrections.  Even p:
    integral bounds throughout.  The pi appearing in the corrections is
    replaced by a rational lower bound, which can only enlarge the result.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    pref = abs(prefactor(p, k))
    inv_pi2_ub = Fraction(1) / PI_LOWER**2
    if p % 2 == 1:
        total = Fraction(1, factorial(2 * k + 1) * (2 * N + 1) ** p)
        for j in range(1, k + 1):
            q = p + 2 * j
            total += inv_pi2_ub**j / (
                factorial(2 * k - 2 * j + 1) * 2 * (q - 1) * (2 * N - 1) ** (q - 1)
            )
        return pref * total
    total = Fraction(1, (p - 1) * factorial(2 * k + 1) * N ** (p - 1))
    for j in range(1, k + 1):
        q = p + 2 * j
        total += inv_pi2_ub**j / (
            factorial(2 * k - 2 * j + 1) * (q - 1) * N ** (q - 1)
        )
    return pref * total


def partial_sum(p: int, k: int, N: int, ctx: PrecisionContext) -> TailedInterval:
    """Certified partial sum of family (p, k) over n = 1..N with its
    analytic tail estimate attached."""
    if N < 1:
        raise ValueError("N must be >= 1")
    spec = family_spec(p, k)
    inv_pi2 = ctx.inv_pi_squared()
    weight_ints = tuple(ctx.from_rational(w) for w in spec.inner_weights)
    total = ctx.zero()
    for n in range(1, N + 1):
        total = total + _term_value(spec, n, ctx, inv_pi2, weight_ints)
    return TailedInterval(total, tail_bound(p, k, N))


def classical_partial(p: int, N: int, ctx: PrecisionContext) -> TailedInterval:
    """Partial sum of the classical series for pi^p (the k = 0 limit of the
    corresponding family, with which it must agree interval-for-interval)."""
    if p not in CLASSICAL_COEFF:
        raise ValueError(f"power p must be in 1..6, got {p}")
    if N == 0:
        return TailedInterval(ctx.zero(), tail_bound(p, 0, 1) + CLASSICAL_COEFF[p])
    coeff = CLASSICAL_COEFF[p]
    alternating = p % 2 == 1
    total = ctx.zero()
    for n in range(1, N + 1):
        if alternating:
            outer = Fraction(1 if n % 2 == 1 else -1, (2 * n - 1) ** p)
        else:
            outer = Fraction(1, n**p)
        total = total + ctx.from_rational(coeff * outer)
    return TailedInterval(total, tail_bound(p, 0, N))
