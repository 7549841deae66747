"""The paper's prefactors, prefactor(p, k) = 2^((n+1) [p odd]) n! / tau_p(k),
n = 2k + 2s + 1, s = floor(p/2), with tau_p(k) read off two lemmas for odd n,
sum_m C(n, 2m) 2^(n-2m) E_2m = 2 and sum_m C(n, 2m) 4^m B_2m = n (DLMF
24.2.1, 24.2.6), the whole trusted base: family p sums the terms m >= s of
the first for odd p, of the second for even p (``exact_verifier``), so
tau_p(k) = (-1)^(s+1-[p odd]) (c - H) / 2, c the lemma's value and
H = ``head_sum`` its s head terms, from E_0, E_2, B_0, B_2, B_4, five
constants written out here and never read from a table under test.
``tau_pair`` gives tau_p(k) as integers, which ``verify`` reads, and
``prefactor_pair`` the prefactor as a reduced pair, which the partial sums
read, from them and ``math.factorial``; ``prefactor`` is its Fraction.
"""

from __future__ import annotations

from math import comb, factorial, gcd

from .special_numbers import required_table_k

__all__ = ["head_sum", "prefactor", "prefactor_pair", "tau_pair"]

# the heads tau subtracts as (D, [v D...]), by p % 2: B_0, B_2, B_4 = 1, 1/6,
# -1/30 and E_0, E_2 = 1, -1
_HEADS = ((30, [30, 5, -1]), (1, [1, -1]))


def head_sum(n: int, values: list[int], heads: range, odd: int) -> int:
    """The terms m in ``heads`` of the lemma sum at n over ``values``:
    sum C(n, 2m) 2^(n-2m) v_m for odd p, sum C(n, 2m) 4^m v_m for even p."""
    return sum(comb(n, 2 * m) * values[m] << (n - 2 * m if odd else 2 * m) for m in heads)


def tau_pair(p: int, k: int) -> tuple[int, int]:
    """tau_p(k) of family p at order k as an unreduced (numerator, positive
    denominator): half its lemma's value less its s = p // 2 heads, signed."""
    n, s, odd = 2 * required_table_k(p, k) + 1, p // 2, p % 2
    common, values = _HEADS[odd]
    total = (2 if odd else n) * common - head_sum(n, values, range(s), odd)
    return (-1) ** (s + odd + 1) * total, 2 * common


def prefactor_pair(p: int, k: int) -> tuple[int, int]:
    """Exact rational multiplier of family p at truncation order k, as a
    reduced (numerator, positive denominator): 2^((n+1) [p odd]) n! / tau_p(k),
    n = 2k + 2 floor(p/2) + 1."""
    n = 2 * required_table_k(p, k) + 1
    num, den = tau_pair(p, k)
    top = (factorial(n) << (n + 1) * (p % 2)) * den
    g = gcd(top, num)
    return (top if num > 0 else -top) // g, abs(num) // g


def prefactor(p: int, k: int) -> Fraction:
    """``prefactor_pair`` as a Fraction."""
    from fractions import Fraction

    return Fraction(*prefactor_pair(p, k))
