"""The six series families for pi, pi^2, ..., pi^6 and their classical limits.

Every family shares one shape: an outer sum over a base sequence (odd
denominators 2n-1 with alternating sign for the odd powers, plain integers n
with positive sign for the even powers), an exact rational prefactor
depending on the truncation order k (``closed_forms.prefactor``), and an
inner polynomial

    sum_{j=0}^{k} (-x)^j / (2k - 2j + 1)!

evaluated at x = 1 / (base^2 pi^2).  At k = 0 the prefactors collapse to the
classical coefficients 4, 6, 32, 90, 1536/5, 945, so ``partial_sum(p, 0, N)``
is the classical series for pi^p.

Summing over n first turns the partial sum into one polynomial in 1/pi^2,

    prefactor * sum_{j=0}^{k} (-1)^j pi^(-2j) S_{p+2j}(N) / (2k - 2j + 1)!,

whose coefficients are the power sums S_q(N) = sum_{n<=N} sign_n / base_n^q.
``partial_sum`` evaluates it in one place, ``_row``, by Horner over j from
integer brackets of 2^w S_q(N), on a context w = N.bit_length() + b + 8
bits past the caller's (b the bit length of the prefactor's numerator), and
rounds it outward to the caller's context once.  It returns the enclosure
of the finite sum alone; ``tail_bound`` bounds what it omits.

*The direct walk* takes the brackets from ``closed_forms.power_sums``,
which walks the bases in integer blocks.  Each is at most N units wide, and
the prefactor magnifies it, so the extra bits keep the row's error below a
fraction of one unit of the context.  It costs N (k + 1) floor divisions.

*The tail path* writes S_q(N) = c_q pi^q - R_q(N) (``closed_forms``): the
exact c_q come from the Euler and Bernoulli tables, so the identity
``verify`` proves is read from them, not assumed, and
``closed_forms.tail_sums`` brackets each R_q(N) with M Euler-Maclaurin
terms.  It costs M (k + 1) divisions and a table of M Bernoulli numbers,
whatever N.

*The path rule* reads N, k and the precision alone.  With
|B_2m| / (2m)! <= 2 zeta(2) (2 pi)^-2m, T_m is at most
4 (2 pi)^-2m h^(2m-1) (p)_(2m-1) y^-(p+2m-1) (y, h as in
``closed_forms``); M is the first m where that bound falls below one unit.
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

from fractions import Fraction
from itertools import count
from math import log2, pi

from .closed_forms import pi_coefficients, power_sums, prefactor, tail_sums
from .exact_core import factorial
from .numeric_engine import CertifiedReal, PrecisionContext
from .special_numbers import MAX_INDEX, number_tables, required_table_k

__all__ = ["partial_sum", "tail_bound"]

# Rational lower bound on pi (a continued-fraction convergent), used only to
# keep analytic tail bounds valid: 1/pi^2 <= (106/333)^2.
PI_LOWER = Fraction(333, 106)

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
    if N < 1:
        raise ValueError("N must be >= 1")
    pref = abs(prefactor(p, k))
    inv_pi2_ub = Fraction(1) / PI_LOWER**2
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
    work: PrecisionContext, brackets: list[tuple[int, int]], k: int, pref: Fraction
) -> CertifiedReal:
    """prefactor * sum_j (-1)^j pi^(-2j) s_j / (2k-2j+1)! for j <= k, by
    Horner over j, from the brackets (lo, hi) of 2**work.scale * s_j."""
    inv_pi2 = work.inv_pi_squared()
    acc = work.zero()
    for j in range(k, -1, -1):
        lo, hi = brackets[j]
        coeff = CertifiedReal(work, lo, hi).mul_ratio(1, factorial(2 * k - 2 * j + 1))
        acc = coeff - inv_pi2 * acc
    return acc.mul_ratio(pref.numerator, pref.denominator)


def _tail_brackets(p: int, k: int, N: int, work: PrecisionContext) -> list[tuple[int, int]] | None:
    """Brackets (lo, hi) of 2**work.scale * S_(p+2j)(N) = c_q pi^q - R_q(N),
    q = p + 2j, for j <= k, from the tables and the tails, each widened by N
    units up to DIRECT_LIMIT; None where the path rule picks the walk."""
    terms = _tail_terms(p, k, N, work.scale)
    if not terms:
        return None
    top = required_table_k(p, k)  # the deepest c_q reads E_2top (odd p) or B_2top
    euler, bernoulli = number_tables(top, terms) if p % 2 else number_tables(0, max(terms, top))
    coeffs = pi_coefficients(p, k + 1, euler if p % 2 else bernoulli)
    tails = tail_sums(p, k + 1, N, work.scale, bernoulli.values[: terms + 1])
    power, pi2 = work.pi_power(p), work.pi_power(2)
    lo, hi = power.lo_m, power.hi_m  # of pi^q, all bounds positive
    slack = N if N <= DIRECT_LIMIT else 0  # so that each holds the walk's bracket
    brackets = []
    for c, (tail_lo, tail_hi) in zip(coeffs, tails):  # c > 0
        head_lo, head_hi = lo * c.numerator // c.denominator, -(-hi * c.numerator // c.denominator)
        brackets.append((head_lo - tail_hi - slack, head_hi - tail_lo + slack))
        lo, hi = lo * pi2.lo_m >> work.scale, -(-hi * pi2.hi_m >> work.scale)
    return brackets


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
    pref = prefactor(p, k)
    work = PrecisionContext(ctx.precision_bits + N.bit_length() + pref.numerator.bit_length() + 8)
    brackets = _tail_brackets(p, k, N, work)
    if brackets is not None:
        row = _row(work, brackets, k, pref)
        if N > DIRECT_LIMIT or _one_cell(row, ctx):
            return row.rounded_to(ctx)
    walked = power_sums(p, k + 1, N, work.scale)
    return _row(work, walked, k, pref).rounded_to(ctx)
