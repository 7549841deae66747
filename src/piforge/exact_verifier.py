"""Exact reduction of each series family to one integer comparison.

Summing each family over its base sequence first and the inner polynomial
index j second turns the n-sum of every j-slice into a closed-form multiple
of pi^(p+2j).  Dividing out pi^p, identity (p, k) holds if and only if
prefactor(p, k) * sum_{j=0}^{k} (-1)^j c(j+s) / (2k-2j+1)! == 1, where c is
the odd-power (Euler-number) coefficient and s = (p-1)/2 for odd p, and the
even-power (Bernoulli-number) coefficient and s = p/2 for even p.  With
m = j + s and n = 2k + 2s + 1 each summand has the denominator
(2m)! (n-2m)!, so the sum times its scale is an integer T:

    odd p:   T = sum_j (-1)^j 4^(k-j) C(n, 2m) |E_2m|,      scale = 2^(2k+2s+2) n!
    even p:  T = (-1)^(s-1) sum_j 2^(2m-1) C(n, 2m) B_2m D,  scale = D n!

where D is the lcm of the denominators of B_2s .. B_2(k+s).  The identity
holds iff prefactor * T == scale: one integer cross-multiplication, with no
tolerance anywhere, and the reported ratio is the one Fraction built per
identity.  Running the grid over many k extends the published hand checks
(k <= 4) to arbitrary order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterable

from .exact_core import factorial
from .gupta_series import partial_sum, prefactor
from .numeric_engine import CertifiedReal, PrecisionContext
from .special_numbers import BernoulliTable, EulerTable, TableDepthError, TableStore

__all__ = [
    "IdentityCheck",
    "reduce_exact",
    "required_table_k",
    "residual_numeric",
    "verify_grid",
]


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one exact reduction: holds iff ratio == 1 exactly."""

    p: int
    k: int
    ratio: Fraction
    holds: bool


def required_table_k(p: int, k: int) -> int:
    """Deepest coefficient order touched by the reduction of (p, k)."""
    if not 1 <= p <= 6:
        raise ValueError(f"power p must be in 1..6, got {p}")
    if k < 0:
        raise ValueError("k must be >= 0")
    return k + (p - 1) // 2 if p % 2 == 1 else k + p // 2


def reduce_exact(
    p: int,
    k: int,
    euler: EulerTable | None = None,
    bern: BernoulliTable | None = None,
) -> IdentityCheck:
    """Exactly reduce family (p, k); the identity holds iff the ratio is 1."""
    deepest = required_table_k(p, k)
    s = deepest - k
    n = 2 * deepest + 1
    if p % 2 == 1:
        if euler is None or not euler.covers(2 * deepest):
            raise TableDepthError("euler", 2 * deepest)
        total = sum(
            (-1) ** j * comb(n, 2 * m) * abs(euler.values[m]) << 2 * (k - j)
            for j, m in enumerate(range(s, deepest + 1))
        )
        scale = factorial(n) << (2 * deepest + 2)
    else:
        if bern is None or not bern.covers(2 * deepest):
            raise TableDepthError("bernoulli", 2 * deepest)
        numbers = bern.values[s : deepest + 1]
        common = lcm(*(b.denominator for b in numbers))
        total = (-1) ** (s - 1) * sum(
            comb(n, 2 * m) * b.numerator * (common // b.denominator) << (2 * m - 1)
            for m, b in enumerate(numbers, s)
        )
        scale = common * factorial(n)
    pref = prefactor(p, k)
    num, den = pref.numerator * total, pref.denominator * scale
    return IdentityCheck(p, k, Fraction(num, den), num == den)


def verify_grid(
    powers: Iterable[int],
    k_max: int,
    *,
    store: TableStore | None = None,
) -> list[IdentityCheck]:
    """One check per (p, k) with p over ``powers`` and k = 0..k_max, in
    deterministic order (p ascending, then k ascending).

    Tables grow lazily through the store up to its hard cap.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    ordered = sorted(set(powers))
    if not ordered:
        return []
    store = store if store is not None else TableStore()
    need_euler = max(
        (required_table_k(p, k_max) for p in ordered if p % 2 == 1), default=None
    )
    need_bern = max(
        (required_table_k(p, k_max) for p in ordered if p % 2 == 0), default=None
    )
    euler = store.euler(need_euler) if need_euler is not None else None
    bern = store.bernoulli(need_bern) if need_bern is not None else None
    return [reduce_exact(p, k, euler, bern) for p in ordered for k in range(k_max + 1)]


def residual_numeric(p: int, k: int, N: int, ctx: PrecisionContext) -> CertifiedReal:
    """Certified interval for partial_sum(p, k, N) / pi^p - 1."""
    value = partial_sum(p, k, N, ctx).partial
    return value / ctx.pi_power(p) - ctx.one()
