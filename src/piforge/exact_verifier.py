"""Exact reduction of each series family to one integer comparison.

Summing each family over its base sequence first and the inner polynomial
index j second turns the n-sum of every j-slice into a closed-form multiple
of pi^(p+2j).  Dividing out pi^p, identity (p, k) holds if and only if
prefactor(p, k) * sum_{j=0}^{k} (-1)^j c(j+s) / (2k-2j+1)! == 1, where c is
the odd-power (Euler-number) coefficient and s = (p-1)/2 for odd p, and the
even-power (Bernoulli-number) coefficient and s = p/2 for even p.  With
m = j + s and n = 2k + 2s + 1 each summand has the denominator
(2m)! (n-2m)!, so the sum times its scale is an integer T.  Every identity
with the same n reads one dot product of binomials and the table, over
m = s..k+s, and T is half of it:

    odd p:   T = (-1)^s     1/2 F_s(n),  F_s(n) = sum_m C(n, 2m) 2^(n-2m) E_2m,  scale = 2^(n+1) n!
    even p:  T = (-1)^(s-1) 1/2 F_s(n),  F_s(n) = sum_m C(n, 2m) 4^m B_2m D,    scale = D n!

with the signed Euler numbers and D the lcm of the denominators of the whole
Bernoulli table (D = 1 for the Euler table, whose values are ints, so one
integer form (D, [v D]) serves both).  Every term is even, so the halving is
exact.  The identity holds iff prefactor * T == scale: one integer
cross-multiplication, with no tolerance anywhere.  A larger D multiplies T
and the scale alike, so the reported ratio, the one Fraction built per
identity, does not depend on it.

Every F of one parity comes from one triangle of additions, a binomial
transform: put each table value v_m at index i = 2m, times 2^(L-i) for odd p
(L the largest n) or 2^i for even p, zero elsewhere, and at each level
replace every entry c_i by c_i + c_(i+1).  Level n leaves
c_0 = sum_i C(n, i) c_i of the start: 2^(L-n) F(n) for odd p, so F is an
exact shift of it, and F(n) for even p.  The triangle forms no big-by-big
product.  At one n, k + s = (n-1)/2 is fixed, so the families of one parity
read suffixes of the same sum: p = 1, 3, 5 from m = 0, 1, 2 and p = 2, 4, 6
from m = 1, 2, 3.  The triangle starts at the smallest requested s, and each
larger s subtracts its at most two head terms.  ``verify_grid``, the one
entry point, runs one triangle per requested parity.  Running the grid over
many k extends the published hand checks (k <= 4) to arbitrary order.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import comb, lcm
from operator import add

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


def _dot_products(scaled: list[int], first: int, odd: int) -> Iterator[int]:
    """F(1) .. F(L), L = 2 len(scaled) - 1, with F(n) the sum over m >= first
    of C(n, 2m) 2^(n-2m) v_m (odd) or C(n, 2m) 4^m v_m (even), v = scaled:
    level n of one triangle of additions."""
    last = 2 * len(scaled) - 1
    level = [0] * (last + 1)
    for m in range(first, len(scaled)):
        level[2 * m] = scaled[m] << (last - 2 * m if odd else 2 * m)
    for n in range(1, last + 1):
        level = list(map(add, level, level[1:]))
        yield level[0] >> (last - n) if odd else level[0]


def _integer_form(table: EulerTable | BernoulliTable) -> tuple[int, list[int]]:
    """(D, [v D for each value v]), D the lcm of the values' denominators."""
    common = lcm(*(v.denominator for v in table.values))
    return common, [v.numerator * (common // v.denominator) for v in table.values]


def _checks(
    group: list[int], form: tuple[int, list[int]], odd: int, k_max: int
) -> list[IdentityCheck]:
    """The checks of the families of one parity, one per shift s of ``group``
    (ascending; p = 2s + odd) and k = 0..k_max, at each odd n from one
    triangle over the integer form of that parity's table."""
    common, scaled = form
    first, checks = group[0], []
    for n, full in enumerate(_dot_products(scaled, first, odd), 1):
        top = n // 2
        live = [s for s in group if top - k_max <= s <= top] if n % 2 else []
        if not live:
            continue
        scale = common * factorial(n) << (n + 1 if odd else 0)
        for s in live:
            heads = (comb(n, 2 * m) * scaled[m] << (n - 2 * m if odd else 2 * m)
                     for m in range(first, s))
            total = (-1) ** (s + odd + 1) * ((full - sum(heads)) >> 1)
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

    Each requested parity's table is built, within the ``MAX_INDEX`` cap,
    and read by one triangle of additions.
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
    forms = map(_integer_form, number_tables(*depths))
    checks = []
    for group, form, odd in zip(groups, forms, (1, 0)):
        if group:
            checks += _checks(group, form, odd, k_max)
    checks.sort(key=lambda check: (check.p, check.k))
    return checks
