"""Exact reduction of each series family to a rational that must equal 1.

Summing each family over its base sequence first and the inner polynomial
index j second turns the n-sum of every j-slice into a closed-form multiple
of pi^(p+2j); dividing out pi^p leaves a finite sum of exact rationals.
The family identity therefore holds if and only if

    prefactor(p, k) * sum_{j=0}^{k} (-1)^j c(j + s) / (2k - 2j + 1)!  ==  1

where s = (p-1)/2 and c is the odd-power (Euler-number) coefficient for odd
p, and s = p/2 with the even-power (Bernoulli-number) coefficient for even
p.  The comparison is structural equality of canonical rationals; no
tolerance appears anywhere in this module.  Running the grid over many k
extends the published hand checks (k <= 4) to arbitrary order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .closed_forms import beta_pi_coeff, zeta_pi_coeff
from .exact_core import factorial
from .gupta_series import partial_sum, prefactor
from .numeric_engine import CertifiedReal, PrecisionContext
from .special_numbers import BernoulliTable, EulerTable, TableDepthError, TableStore

__all__ = [
    "IdentityCheck",
    "reduce_exact",
    "reduction_summands",
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


def reduction_summands(
    p: int,
    k: int,
    euler: EulerTable | None = None,
    bern: BernoulliTable | None = None,
) -> list[Fraction]:
    """The signed exact summands (-1)^j c(j+s) / (2k-2j+1)! for j = 0..k."""
    s = (p - 1) // 2 if p % 2 == 1 else p // 2
    deepest = required_table_k(p, k)
    if p % 2 == 1:
        if euler is None or not euler.covers(2 * deepest):
            raise TableDepthError("euler", 2 * deepest)
        coeff = lambda m: beta_pi_coeff(m, euler).coeff
    else:
        if bern is None or not bern.covers(2 * deepest):
            raise TableDepthError("bernoulli", 2 * deepest)
        coeff = lambda m: zeta_pi_coeff(m, bern).coeff
    sign = 1
    out = []
    for j in range(k + 1):
        out.append(Fraction(sign) * coeff(j + s) / factorial(2 * k - 2 * j + 1))
        sign = -sign
    return out


def reduce_exact(
    p: int,
    k: int,
    euler: EulerTable | None = None,
    bern: BernoulliTable | None = None,
) -> IdentityCheck:
    """Exactly reduce family (p, k); the identity holds iff the ratio is 1."""
    ratio = prefactor(p, k) * sum(reduction_summands(p, k, euler, bern))
    return IdentityCheck(p, k, ratio, ratio == 1)


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
