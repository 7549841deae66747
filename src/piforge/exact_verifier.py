"""Exact reduction of each series family to one integer comparison.

Summing each family over its base sequence first and the inner polynomial
index j second turns the n-sum of every j-slice into a closed-form multiple
of pi^(p+2j).  Dividing out pi^p, identity (p, k) holds if and only if
prefactor(p, k) * sum_{j=0}^{k} (-1)^j c(j+s) / (2k-2j+1)! == 1, where c is
the odd-power (Euler-number) coefficient and s = (p-1)/2 for odd p, and the
even-power (Bernoulli-number) coefficient and s = p/2 for even p.  With
m = j + s and n = 2k + 2s + 1 each summand has the denominator
(2m)! (n-2m)!, and prefactor(p, k) = 2^((n+1) [p odd]) n! / tau_p(k) of
``closed_forms``, so identity (p, k) reads T = D tau_p(k) for the
integer T, half a dot product of binomials and the table over m = s..k+s:

    odd p:   T = (-1)^s     1/2 F_s(n),  F_s(n) = sum_m C(n, 2m) 2^(n-2m) E_2m
    even p:  T = (-1)^(s-1) 1/2 F_s(n),  F_s(n) = sum_m C(n, 2m) 4^m B_2m D

with the signed Euler numbers, D = 1, or D the lcm of the Bernoulli table's
denominators (``special_numbers.integer_tables``).  Every term is even, so
the halving is exact.  By the lemmas of ``closed_forms``, F_0(n) is 2 D or
n D, and tau_p(k) is the same signed half of F_0(n) / D less the heads
m < s, from its own E_0, E_2, B_0, B_2, B_4: identity (p, k) holds iff the
table satisfies its lemma at n, and a wrong entry fails only the identities
that read it.  With tau_p(k) = a / b, b > 0 (``closed_forms.tau_pair``),
the check is T b == D a, on ints alone, with no tolerance and no factorial.
The reported ratio is T / (D tau_p(k)), which a larger D does not change,
as an integer pair: the shared constant (1, 1) when the check holds, and
+-(T b, D a), unreduced, with a positive denominator, when it fails.

Every F of one parity comes from one triangle of additions, a binomial
transform: put each table value v_m at index i = 2m, times 2^(L-i) for odd p
(L the largest n) or 2^i for even p, zero elsewhere, and at each level
replace every entry c_i by c_i + c_(i+1).  Level n leaves
c_0 = sum_i C(n, i) c_i of the start: 2^(L-n) F(n) for odd p, so F is an
exact shift of it, and F(n) for even p.  The triangle forms no big-by-big
product.  At one n, k + s = (n-1)/2 is fixed, so the families of one parity
read suffixes of the same sum: p = 1, 3, 5 from m = 0, 1, 2 and p = 2, 4, 6
from m = 1, 2, 3.  The triangle starts at the smallest requested s, and
each larger s subtracts its at most two head terms (``head_sum``).
``verify_grid``, the one entry point, runs one triangle per parity and reads
each family's checks from it in order of k.  Running the grid over many k
extends the published hand checks (k <= 4) to arbitrary order.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from operator import add

from .closed_forms import head_sum, tau_pair
from .special_numbers import MAX_INDEX, TableDepthError, integer_tables, required_table_k

__all__ = ["IdentityCheck", "required_table_k", "verify_grid"]


class IdentityCheck(namedtuple("IdentityCheck", "p k ratio holds")):
    """Outcome of one exact reduction: holds iff ratio == (1, 1).  The ratio
    is an int (numerator, positive denominator) pair, unreduced if it fails."""

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


def _checks(
    powers: list[int], form: tuple[int, list[int]], k_max: int
) -> dict[int, list[IdentityCheck]]:
    """The checks of ``powers``, ascending and of one parity, each for
    k = 0..k_max in order, from one triangle over the integer form of that
    parity's table: identity (p, k) reads F at n = 2t + 1, t = k + p // 2."""
    common, scaled = form
    odd, first = powers[0] % 2, powers[0] // 2
    full = list(_dot_products(scaled, first, odd))[::2]  # F(2t + 1) at t
    checks = {}
    for p in powers:
        s, checks[p] = p // 2, []
        for t in range(s, s + k_max + 1):
            heads = head_sum(2 * t + 1, scaled, range(first, s), odd)
            total = (-1) ** (s + odd + 1) * ((full[t] - heads) >> 1)
            tau_num, tau_den = tau_pair(p, t - s)
            num, den = total * tau_den, common * tau_num
            holds = num == den
            ratio = (1, 1) if holds else (-num, -den) if den < 0 else (num, den)
            checks[p].append(IdentityCheck(p, t - s, ratio, holds))
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
    powers = sorted(set(powers))
    # the table order each parity needs (0 for a parity nobody asked for)
    groups = [[p for p in powers if p % 2 == odd] for odd in (1, 0)]
    depths = [max((required_table_k(p, k_max) for p in group), default=0) for group in groups]
    for kind, K in zip(("euler", "bernoulli"), depths):
        if 2 * K > MAX_INDEX:
            raise TableDepthError(kind, 2 * K, MAX_INDEX)
    checks = {}
    for group, form in zip(groups, integer_tables(*depths)):
        if group:
            checks.update(_checks(group, form, k_max))
    return [check for p in powers for check in checks[p]]
