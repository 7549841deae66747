"""The one power-sum kernel behind every partial sum in piforge.

``power_sums`` brackets the finite left-hand sides

    S_q(N) = sum_{n<=N} sign_n / base_n^q

for several exponents q, q+2, q+4, ... in one pure-integer pass over n:
``divmod(2**work, base**q)`` gives floor(2**work / base**q), and each
further floor division by base**2 gives the floor for the next exponent
exactly (nested floors by integers compose).  A term whose division leaves
a remainder widens the bracket by one unit on the side its sign points to;
exact terms do not widen it, so sums of dyadic terms stay exact.
``gupta_series.partial_sum`` builds all six families on this kernel.
"""

from __future__ import annotations

__all__ = ["power_sums"]


def power_sums(
    alternating: bool, q: int, count: int, N: int, work: int
) -> list[tuple[int, int]]:
    """Integer brackets ``(lo, hi)`` of 2**work * S_{q+2j}(N) for j < count.

    The base sequence is 2n-1 with sign (-1)^(n+1) when ``alternating``,
    else n with sign +1.  Each bracket is at most N units wide."""
    one = 1 << work
    lo = [0] * count
    hi = [0] * count
    for n in range(1, N + 1):
        base = 2 * n - 1 if alternating else n
        negative = alternating and n % 2 == 0
        square = base * base
        f, r = divmod(one, base**q)
        inexact = r != 0
        for j in range(count):
            if j:
                f, r = divmod(f, square)
                inexact = inexact or r != 0
            if negative:
                lo[j] -= f + inexact
                hi[j] -= f
            else:
                lo[j] += f
                hi[j] += f + inexact
    return list(zip(lo, hi))
