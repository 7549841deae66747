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

    R_n[i] = C(n, i) 2^(n-i),  built by  R_(n+2)[i] = 4 R_n[i] + 4 R_n[i-1] + R_n[i-2],

and T is half the dot product of that row with the table, over m = s..k+s:

    odd p:   T = (-1)^s     1/2 sum_m R_n[2m]   E_2m,    scale = 2^(n+1) n!
    even p:  T = (-1)^(s-1) 1/2 sum_m R_n[n-2m] B_2m D,  scale = D n!

with the signed Euler numbers, C(n, 2m) 4^m = R_n[n-2m], and D the lcm of
the denominators of the whole Bernoulli table (D = 1 for the Euler table,
whose values are ints, so one integer form (D, [v D]) serves both).  Every
term is even, so the halving is exact.  The identity holds iff prefactor * T
== scale: one integer cross-multiplication, with no tolerance anywhere.  A
larger D multiplies T and the scale alike, so the reported ratio, the one
Fraction built per identity, does not depend on it.

At one n, k + s = (n-1)/2 is fixed, so the families of one parity sum
suffixes of the same products: p = 1, 3, 5 from m = 0, 1, 2 and p = 2, 4, 6
from m = 1, 2, 3.  ``_checks`` forms the products once, from the smallest
requested s, sums them once, and gives each larger s that sum minus its few
head products.  One walk builds the rows R_1, R_3, ..., each by the
recurrence from the one before, and ``verify_grid``, the one entry point,
asks for every requested s of both parities at each n.  Running the grid
over many k extends the published hand checks (k <= 4) to arbitrary order.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, lshift, mul

from .closed_forms import prefactor
from .exact_core import factorial
from .special_numbers import (
    MAX_INDEX,
    BernoulliTable,
    EulerTable,
    TableDepthError,
    number_tables,
    required_table_k,
)

__all__ = [
    "IdentityCheck",
    "required_table_k",
    "verify_grid",
]


class IdentityCheck(namedtuple("IdentityCheck", "p k ratio holds")):
    """Outcome of one exact reduction: holds iff ratio == 1 exactly."""

    __slots__ = ()


def _rows() -> Iterator[list[int]]:
    """R_1, R_3, R_5, ... with R_n[i] = C(n, i) 2^(n-i), the coefficients of
    (x + 2)^n, each the one before times (x + 2)^2 = x^2 + 4x + 4."""
    row = [2, 1]
    while True:
        yield row
        quads = map(lshift, map(add, [*row, 0, 0], [0, *row, 0]), repeat(2))
        row = list(map(add, quads, [0, 0, *row]))


def _integer_form(table: EulerTable | BernoulliTable) -> tuple[int, list[int]]:
    """(D, [v D for each value v]), D the lcm of the values' denominators."""
    common = lcm(*(v.denominator for v in table.values))
    return common, [v.numerator * (common // v.denominator) for v in table.values]


def _checks(
    row: list[int], shifts: list[int], form: tuple[int, list[int]], odd: int
) -> list[IdentityCheck]:
    """The checks of the families of one parity at odd n = len(row) - 1,
    read from the row R_n and the integer form of that parity's table, one
    per shift s (ascending; p = 2s + odd), from one set of products summed
    once."""
    common, scaled = form
    n = len(row) - 1
    top, first = n // 2, shifts[0]
    weights = row[2 * first :: 2] if odd else row[n - 2 * first :: -2]
    products = list(map(mul, weights, scaled[first : top + 1]))
    scale = common * factorial(n) << (n + 1 if odd else 0)
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


def verify_grid(powers: Iterable[int], k_max: int) -> list[IdentityCheck]:
    """One check per (p, k) with p over ``powers`` and k = 0..k_max, in
    deterministic order (p ascending, then k ascending), so the last check
    of ``verify_grid([p], k)`` is identity (p, k).

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
    forms = list(map(_integer_form, number_tables(*depths)))
    checks = []
    # the row R_(2d+1) serves the identities whose deepest table order is d
    for deepest, row in zip(range(max(depths) + 1), _rows()):
        for group, form, odd in zip(groups, forms, (1, 0)):
            live = [s for s in group if deepest - k_max <= s <= deepest]
            if live:
                checks += _checks(row, live, form, odd)
    checks.sort(key=lambda check: (check.p, check.k))
    return checks
