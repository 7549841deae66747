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
built per identity, does not depend on it.

At one n, k + s = (n-1)/2 is fixed, so the families of one parity sum
suffixes of the same products: p = 1, 3, 5 from m = 0, 1, 2 and p = 2, 4, 6
from m = 1, 2, 3.  ``_checks`` forms the products once, from the smallest
requested s, sums them once, and gives each larger s that sum minus its few
head products.  ``reduce_exact`` builds its one row from the closed form and
asks for one s; ``verify_grid`` walks the rows R_1, R_3, ... upwards, each
built by the recurrence from the one before, and asks for every requested s
of both parities at each n.  Running the grid over many k
extends the published hand checks (k <= 4) to arbitrary order.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import comb
from operator import add, mul

from .exact_core import factorial
from .gupta_series import prefactor
from .special_numbers import MAX_INDEX, BernoulliTable, EulerTable, TableDepthError, number_tables

__all__ = [
    "IdentityCheck",
    "reduce_exact",
    "required_table_k",
    "verify_grid",
]


class IdentityCheck(namedtuple("IdentityCheck", "p k ratio holds")):
    """Outcome of one exact reduction: holds iff ratio == 1 exactly."""

    __slots__ = ()


def required_table_k(p: int, k: int) -> int:
    """Deepest coefficient order touched by the reduction of (p, k)."""
    if not 1 <= p <= 6:
        raise ValueError(f"power p must be in 1..6, got {p}")
    if k < 0:
        raise ValueError("k must be >= 0")
    return k + p // 2


def _rows() -> Iterator[list[int]]:
    """R_1, R_3, R_5, ... with R_n[i] = C(n, i) 2^(n-i), each two recurrence
    steps past the one before."""
    row = [2, 1]
    while True:
        yield row
        for _ in range(2):
            padded = [*row, 0]
            row = list(map(add, map(add, padded, padded), [0, *row]))


def _checks(
    row: list[int], shifts: list[int], table: EulerTable | BernoulliTable
) -> list[IdentityCheck]:
    """The checks of the families of one parity at odd n = len(row) - 1,
    read from the row R_n, one per shift s (ascending; p = 2s + 1 for the
    Euler table, p = 2s for the Bernoulli table), from one set of products
    summed once."""
    odd = isinstance(table, EulerTable)
    n = len(row) - 1
    top, first = n // 2, shifts[0]
    if odd:
        products = list(map(mul, row[2 * first :: 2], table.values[first : top + 1]))
        scale = factorial(n) << (n + 1)
    else:
        common, scaled = table.scaled
        products = list(map(mul, row[n - 2 * first :: -2], scaled[first : top + 1]))
        scale = common * factorial(n)
    full = sum(products)
    checks = []
    for s in shifts:
        dot = full - sum(products[: s - first])
        total = (-1) ** (s + odd + 1) * (dot >> 1)
        p, k = 2 * s + odd, top - s
        pref = prefactor(p, k)
        num, den = pref.numerator * total, pref.denominator * scale
        ratio = Fraction(1) if num == den else Fraction(num, den)
        checks.append(IdentityCheck(p, k, ratio, num == den))
    return checks


def reduce_exact(
    p: int,
    k: int,
    euler: EulerTable | None = None,
    bern: BernoulliTable | None = None,
) -> IdentityCheck:
    """Exactly reduce family (p, k); the identity holds iff the ratio is 1."""
    deepest = required_table_k(p, k)
    kind, table = ("euler", euler) if p % 2 == 1 else ("bernoulli", bern)
    if table is None or len(table.values) <= deepest:
        raise TableDepthError(kind, 2 * deepest)
    n = 2 * deepest + 1
    row = [comb(n, i) << (n - i) for i in range(n + 1)]
    return _checks(row, [deepest - k], table)[0]


def verify_grid(powers: Iterable[int], k_max: int) -> list[IdentityCheck]:
    """One check per (p, k) with p over ``powers`` and k = 0..k_max, in
    deterministic order (p ascending, then k ascending).

    Both tables come from one zigzag run, up to the ``MAX_INDEX`` cap.  The
    checks run in order of the row they read, so each row is built once and
    only the current row is held.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    shift = {p: required_table_k(p, 0) for p in set(powers)}
    if not shift:
        return []
    # the shifts s of the requested odd and even families, and the table
    # order each parity needs (0 for a parity nobody asked for)
    groups = [sorted(s for p, s in shift.items() if p % 2 == odd) for odd in (1, 0)]
    depths = [k_max + group[-1] if group else 0 for group in groups]
    for kind, K in zip(("euler", "bernoulli"), depths):
        if 2 * K > MAX_INDEX:
            raise TableDepthError(kind, 2 * K, MAX_INDEX)
    tables = number_tables(*depths)
    checks = []
    # the row R_(2d+1) serves the identities whose deepest table order is d
    for deepest, row in zip(range(max(depths) + 1), _rows()):
        for group, table in zip(groups, tables):
            live = [s for s in group if deepest - k_max <= s <= deepest]
            if live:
                checks += _checks(row, live, table)
    checks.sort(key=lambda check: (check.p, check.k))
    return checks
