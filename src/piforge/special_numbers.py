"""Exact Euler and Bernoulli number tables from the secant and tangent numbers.

The up/down (zigzag) numbers A_0, A_1, ..., whose exponential generating
function is sec x + tan x, are the secant numbers S_n = A_2n and the tangent
numbers T_n = A_(2n-1).  Each parity has its own all-integer recurrence, of
about K^2/2 small-by-big products for K values (Brent & Harvey, "Fast
computation of Bernoulli, Tangent and Secant numbers", arXiv:1108.0286):

* Euler numbers:  E_{2n} = (-1)^n S_n.  Odd-index Euler numbers are
  identically zero and are not stored.
* Bernoulli numbers:  B_{2n} = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)) for
  n >= 1, B_0 = 1 and B_1 = -1/2 (all other odd Bernoulli numbers vanish).

The only division is the final one of each Bernoulli number, kept as a
reduced (numerator, positive denominator) pair, so every table holds ints
alone and the module loads no ``fractions``.  ``integer_tables`` hands
``verify`` both tables over a common denominator.  B_1 is in no table; the
CLI prints it.  Each recurrence runs only as deep as its table, so a
request for one table computes none of the other.
:class:`TableStore` builds a table on request up to index
``MAX_INDEX = 512``; only :mod:`piforge.exact_commands` prints them.
``required_table_k`` is the one depth rule, k + p // 2, of identity (p, k):
with the cap, it bounds every order the CLI accepts, in every run.  The cap
bounds what the CLI accepts, not ``bernoulli_numbers``: a certified tail in
``tails`` reads as many Bernoulli numbers as its precision needs.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm

__all__ = [
    "BernoulliTable",
    "EulerTable",
    "MAX_INDEX",
    "TableDepthError",
    "TableStore",
    "bernoulli_numbers",
    "euler_numbers",
    "integer_tables",
    "required_table_k",
]

MAX_INDEX = 512


def required_table_k(p: int, k: int) -> int:
    """Deepest table order k + p // 2 that identity (p, k) reads."""
    if not 1 <= p <= 6:
        raise ValueError(f"power p must be in 1..6, got {p}")
    if k < 0:
        raise ValueError("k must be >= 0")
    return k + p // 2


class TableDepthError(LookupError):
    """A computation needs a deeper table than is available or permitted."""

    def __init__(self, kind: str, required_index: int, cap: int | None = None):
        message = f"{kind} table must cover index {required_index}"
        if cap is not None:
            message += f" but the hard cap is {cap}"
        super().__init__(message)


class EulerTable(namedtuple("EulerTable", "values")):
    """E_0, E_2, ..., E_{2K}; ``values[k]`` is E_{2k}."""

    __slots__ = ()


class BernoulliTable(namedtuple("BernoulliTable", "values")):
    """B_0, B_2, ..., B_{2K}; ``values[k]`` is B_{2k} as a reduced
    (numerator, positive denominator) pair."""

    __slots__ = ()


def _zigzag_parity(K: int, odd: int) -> list[int]:
    """The secant numbers S_0 .. S_K (odd = 0) or the tangent numbers
    T_1 .. T_K (odd = 1), as a_0 .. a_(n-1), n = K + 1 - odd: start from
    a_j = j a_(j-1), then for k = 1 .. n-1 in turn replace a_j by
    (j - k) a_(j-1) + (j - k + 1 + odd) a_j for j = k .. n-1."""
    if K < 0:
        raise ValueError("K must be >= 0")
    n, a = K + 1 - odd, [1]
    for j in range(1, n):
        a.append(j * a[-1])
    for k in range(1, n):
        for j in range(k, n):
            a[j] = (j - k) * a[j - 1] + (j - k + 1 + odd) * a[j]
    return a[:n]


def euler_numbers(K: int) -> EulerTable:
    """Exact table of E_0 .. E_{2K}."""
    return EulerTable(tuple(-v if n % 2 else v for n, v in enumerate(_zigzag_parity(K, 0))))


def bernoulli_numbers(K: int) -> BernoulliTable:
    """Exact table of B_0 .. B_{2K} (even indices) as reduced pairs."""
    pairs = [(1, 1)]
    for n, t in enumerate(_zigzag_parity(K, 1), 1):
        four_n = 1 << (2 * n)
        num, den = 2 * n * t, four_n * (four_n - 1)
        g = gcd(num, den)
        pairs.append(((num if n % 2 else -num) // g, den // g))
    return BernoulliTable(tuple(pairs))


def integer_tables(k_euler: int, k_bern: int) -> tuple[tuple[int, list[int]], ...]:
    """E_0 .. E_{2 k_euler} and B_0 .. B_{2 k_bern}, each as (D, [v D for each
    value v]), D the lcm of the values' denominators (1 for the Euler numbers)."""
    pairs = bernoulli_numbers(k_bern).values
    common = lcm(*(den for _, den in pairs))
    return (1, list(euler_numbers(k_euler).values)), (common, [n * (common // d) for n, d in pairs])


class TableStore:
    """Builds the table a request asks for.  A request beyond ``MAX_INDEX``
    raises :class:`TableDepthError` before anything is built."""

    def euler(self, K: int) -> EulerTable:
        if 2 * K > MAX_INDEX:
            raise TableDepthError("euler", 2 * K, MAX_INDEX)
        return euler_numbers(K)

    def bernoulli(self, K: int) -> BernoulliTable:
        if 2 * K > MAX_INDEX:
            raise TableDepthError("bernoulli", 2 * K, MAX_INDEX)
        return bernoulli_numbers(K)
