"""The six series families for pi, pi^2, ..., pi^6 and their classical limits.

Every family shares one shape: an outer sum over a base sequence (odd
denominators 2n-1 with alternating sign for the odd powers, plain integers n
with positive sign for the even powers), an exact rational prefactor
depending on the truncation order k (``closed_forms.prefactor_pair``), and an
inner polynomial

    sum_{j=0}^{k} (-x)^j / (2k - 2j + 1)!

evaluated at x = 1 / (base^2 pi^2).  At k = 0 the prefactors collapse to the
classical coefficients 4, 6, 32, 90, 1536/5, 945, so ``partial_sum(p, 0, N)``
is the classical series for pi^p.

Summing over n first turns the partial sum into one polynomial in 1/pi^2,

    prefactor * sum_{j=0}^{k} (-1)^j pi^(-2j) S_{p+2j}(N) / (2k - 2j + 1)!,

whose coefficients are the power sums S_q(N) = sum_{n<=N} sign_n / base_n^q.
Each q = p + 2j has the parity of p, and in both kernels below the parity
of q picks the series: the alternating one over the odd bases 2n-1 for odd
q, the plain one over the bases n for even q.  ``partial_sum`` evaluates
the polynomial in one place, ``_row``, by Horner over j from integer
brackets of 2^w S_q(N), on a context w = N.bit_length() + b + 8 bits past
the caller's (b the bit length of the prefactor's numerator), and rounds it
outward to the caller's context once.  It returns the enclosure of the
finite sum alone; ``tail_bound`` bounds what it omits.  The brackets of the
exponents q, q+2, q+4, ... come from one of two integer kernels, and
``partial_sum`` imports each only for a row that takes its path: the direct
walk, ``walk.power_sums``, N floor divisions per exponent, each bracket at
most N units wide (the prefactor magnifies it, so the extra bits keep the
row's error below a fraction of one unit of the context), or the tail,
``tails.tailed_power_sums``, c_q pi^q - R_q(N) with R_q(N) from a certified
Euler-Maclaurin expansion, at a cost independent of N.

*The path rule* reads N, k and the precision alone.  With
|B_2m| / (2m)! <= 2 zeta(2) (2 pi)^-2m, the tail's term T_m is at most
4 (2 pi)^-2m h^(2m-1) (p)_(2m-1) y^-(p+2m-1), with the tail's y = 2N + 1
and h = 4 for odd p, y = N + 1 and h = 1 for even p; M is the first m where
that bound falls below one unit.
The tail runs where k + p // 2 lies within the MAX_INDEX tables, which the
c_q read, and M^2 / 4 + TAIL_COST M (k + 1) < N (k + 1): one term of one
exponent costs about TAIL_COST direct terms, the table about M^2 / 4.
Measured (CPython 3.11.7, 2 cores, rows with k <= 8), the rule switches at
N = 280-450 at 128 bits and 1,860-3,030 at 1024 bits; past the switch a
tail row costs at most about 0.1 ms more than its walk (k = 0 at 128 bits,
up to N = 600), and less elsewhere.  So the rows of converge-sum in the
benchmark (N >= 2e4 at 128 bits) take the tail, while its N = 1 set-up job
and the N = 100 and 1000 rows of compare-baselines at 1024 bits walk.
The rule gives N > TAIL_COST m for every m it counts, so y > 2m + 1: the
bound on T_m falls with m, by the factor (p+2m-1)(p+2m) h^2 / (4 pi^2 y^2)
< 1, and for a higher exponent q = p + 2j it is at most the one for p: over
one step of q it changes by the factor (q+2m-1)(q+2m) / (q (q+1) y^2) <
(q (2m+1))^2 / (q y)^2 < 1.  So every tail reaches a term below one unit
within M terms.

*The rounding.*  Below DIRECT_LIMIT the tail decides the walk's rounding
instead of replacing it, so a row prints the walk's bytes.  Widened by N
units, each tail bracket holds the walk's, as both hold 2^w S_q(N) and the
walk's is at most N wide.  Subtraction, the interval product, ``mul_ratio``
and outward rounding are monotone under inclusion (Moore, Interval
Analysis, 1966), so the row E that ``_row`` makes of the widened brackets
holds the walk's unrounded row D.  Where both ends of E have one floor and
one ceiling on the context's grid (``_one_cell``), so has every point
between them, D's ends included, and E rounded is the walk's row bit for
bit; E's width follows the row's own k.  Elsewhere, 1 of the 767 distinct
128-bit rows of the converge-sum deck (seeds 1-5), the walk runs.

*Past DIRECT_LIMIT* = 10^7 terms, 3-25 s of walking at 128 bits, the
unwidened E rounded outward is the row, so ``--terms`` up to 2^62 costs
what 10^5 does.

Numeric evaluation deliberately uses the independent pi enclosure from
``numeric_engine``: these series are representations of powers of pi, not
bootstrap algorithms for it, and feeding them their own output would make
every convergence measurement circular.
"""

from __future__ import annotations

from itertools import count
from math import factorial, log2, pi

from .closed_forms import prefactor, prefactor_pair
from .numeric_engine import CertifiedReal, PrecisionContext
from .special_numbers import MAX_INDEX, required_table_k

__all__ = ["partial_sum", "tail_bound"]

# The path rule and the direct limit; the module docstring derives each.
DIRECT_LIMIT = 10**7  # past this N the tail's own rounding is the row
TAIL_COST = 24  # one expansion term of one exponent, in direct terms


def tail_bound(p: int, k: int, N: int) -> Fraction:
    """Certified upper bound on the absolute series tail beyond N terms.

    Odd p: alternating-series bound on the leading part of the inner
    polynomial plus integral bounds on the x^j corrections.  Even p:
    integral bounds throughout.  The pi appearing in the corrections is
    replaced by a rational lower bound, which can only enlarge the result.
    """
    from fractions import Fraction

    if N < 1:
        raise ValueError("N must be >= 1")
    pref = abs(prefactor(p, k))
    # 333/106 < pi, a continued-fraction convergent: 1/pi^2 <= (106/333)^2
    inv_pi2_ub = Fraction(106, 333) ** 2
    if p % 2 == 1:
        total = Fraction(1, factorial(2 * k + 1) * (2 * N + 1) ** p)
        first, step, base = 1, 2, 2 * N - 1  # integral over odd bases: step 2
    else:
        total = Fraction(0)
        first, step, base = 0, 1, N
    for j in range(first, k + 1):
        q = p + 2 * j
        den = factorial(2 * k - 2 * j + 1) * step * (q - 1) * base ** (q - 1)
        total += inv_pi2_ub**j / den
    return pref * total


def _tail_terms(p: int, k: int, N: int, work: int) -> int:
    """How many Euler-Maclaurin terms the tails of row (p, k, N) take at
    ``work`` bits, or 0 where the direct walk is the path: the c_q lie past
    the ``MAX_INDEX`` tables, or the terms cost more than the walk before
    they fall below 2^-work."""
    if required_table_k(p, k) > MAX_INDEX // 2:
        return 0
    h, y = (4, 2 * N + 1) if p % 2 else (1, N + 1)
    # log2 of the bound 4 (2 pi)^-2m h^(2m-1) (p)_(2m-1) y^-(p+2m-1) on T_m
    size = 2 - 2 * log2(2 * pi) + log2(h * p) - (p + 1) * log2(y)
    for m in count(1):
        if m * m / 4 + TAIL_COST * m * (k + 1) >= N * (k + 1):
            return 0
        if size < -work:
            return m
        size += log2((p + 2 * m - 1) * (p + 2 * m) * h * h / (4 * pi * pi * y * y))


def _row(
    work: PrecisionContext, brackets: list[tuple[int, int]], k: int, pref: tuple[int, int]
) -> CertifiedReal:
    """prefactor * sum_j (-1)^j pi^(-2j) s_j / (2k-2j+1)! for j <= k, by
    Horner over j from s_k, whose divisor is 1! = 1, from the brackets
    (lo, hi) of 2**work.scale * s_j and the prefactor's pair ``pref``."""
    acc = CertifiedReal(work, *brackets[k])
    inv_pi2 = work.inv_pi_squared() if k else None
    for j in range(k - 1, -1, -1):
        coeff = CertifiedReal(work, *brackets[j]).mul_ratio(1, factorial(2 * k - 2 * j + 1))
        acc = coeff - inv_pi2 * acc
    return acc.mul_ratio(*pref)


def _one_cell(value: CertifiedReal, ctx: PrecisionContext) -> bool:
    """Whether both ends of ``value`` have one floor and one ceiling on the
    grid of ``ctx``, so that every enclosure inside it rounds alike."""
    lo, hi, shift = value.lo_m, value.hi_m, value.ctx.scale - ctx.scale
    return lo >> shift == hi >> shift and -lo >> shift == -hi >> shift


def partial_sum(p: int, k: int, N: int, ctx: PrecisionContext) -> CertifiedReal:
    """Certified partial sum of family (p, k) over n = 1..N; at k = 0 this
    is the classical series for pi^p."""
    if N < 1:
        raise ValueError("N must be >= 1")
    pref = prefactor_pair(p, k)
    work = PrecisionContext(ctx.precision_bits + N.bit_length() + pref[0].bit_length() + 8)
    terms = _tail_terms(p, k, N, work.scale)
    if terms:
        from .tails import tailed_power_sums

        slack = N if N <= DIRECT_LIMIT else 0  # so that each holds the walk's bracket
        row = _row(work, tailed_power_sums(p, k, N, work, terms, slack), k, pref)
        if N > DIRECT_LIMIT or _one_cell(row, ctx):
            return row.rounded_to(ctx)
    from .walk import power_sums

    walked = power_sums(p, k + 1, N, work.scale)
    return _row(work, walked, k, pref).rounded_to(ctx)
