"""The one power-sum kernel behind every partial sum in piforge.

``power_sums`` brackets the finite left-hand sides

    S_q(N) = sum_{n<=N} sign_n / base_n^q

for several exponents q, q+2, q+4, ... in one pure-integer pass over n.
The terms split into sign classes (odd and even n for the alternating
series, one positive class otherwise), and each class is walked in blocks
of ``BLOCK`` bases: one ``map`` gives floor(2**work / base**q) for the
whole block, and each further floor division by base**2 gives the floor
for the next exponent exactly (nested floors by integers compose).  A term
whose floor is inexact widens the bracket by one unit on the side its sign
points to.  Term n is exact at exponent e iff base**e divides 2**work,
that is iff base = 2**t with t*e <= work, so the inexact terms are counted
from the class size instead of tested one by one, and sums of dyadic terms
stay exact.  ``gupta_series.partial_sum`` builds all six families on this
kernel.
"""

from __future__ import annotations

from itertools import repeat
from operator import floordiv, mul

__all__ = ["power_sums"]

# Bases per block: large enough that the per-block Python overhead is small,
# small enough that a block of floors at 1024 bits stays a fraction of a MB.
BLOCK = 256


def _floor_sums(bases: range, q: int, count: int, one: int) -> list[int]:
    """sum(floor(one / base**(q+2j)) for base in bases), for j < count."""
    sums = [0] * count
    for start in range(0, len(bases), BLOCK):
        block = bases[start : start + BLOCK]
        squares = list(map(mul, block, block))
        fs = list(map(floordiv, repeat(one), map(pow, block, repeat(q))))
        for j in range(count):
            if j:
                fs = list(map(floordiv, fs, squares))
            sums[j] += sum(fs)
    return sums


def power_sums(
    alternating: bool, q: int, count: int, N: int, work: int
) -> list[tuple[int, int]]:
    """Integer brackets ``(lo, hi)`` of 2**work * S_{q+2j}(N) for j < count.

    The base sequence is 2n-1 with sign (-1)^(n+1) when ``alternating``,
    else n with sign +1; q must be at least 1.  Each bracket is at most N
    units wide."""
    if q < 1:
        raise ValueError("q must be >= 1")
    one = 1 << work
    if alternating:
        classes = ((range(1, 2 * N, 4), False), (range(3, 2 * N, 4), True))
    else:
        classes = ((range(1, N + 1), False),)
    lo = [0] * count
    hi = [0] * count
    for bases, negative in classes:
        powers_of_two = [t for t in range(bases.stop.bit_length()) if 1 << t in bases]
        for j, total in enumerate(_floor_sums(bases, q, count, one)):
            exact = sum(t * (q + 2 * j) <= work for t in powers_of_two)
            inexact = len(bases) - exact
            if negative:
                lo[j] -= total + inexact
                hi[j] -= total
            else:
                lo[j] += total
                hi[j] += total + inexact
    return list(zip(lo, hi))
