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
Each q = p + 2j has the parity of p, and in every kernel below the parity
of q picks the series: the alternating one over the odd bases 2n-1 for odd
q, the plain one over the bases n for even q.  ``partial_sum`` evaluates
the polynomial in one place, ``_row``, by Horner over j from integer
brackets of 2^w S_q(N), on a context w = N.bit_length() + b + 8 bits past
the caller's (b the bit length of the prefactor's numerator), and rounds it
outward to the caller's context once.  It returns the enclosure of the
finite sum alone; ``tail_bound`` bounds what it omits.  The brackets of the
exponents q, q+2, q+4, ... come from one of two integer kernels.

*The direct walk*, ``power_sums``, makes one pass over n.  The terms split
into sign classes (odd and even n for the alternating series, one positive
class otherwise), and each class is walked in blocks of ``BLOCK`` bases:
one ``map`` gives floor(2**work / base**q) for the whole block, and each
further floor division by base**2 gives the floor for the next exponent
exactly (nested floors by integers compose).  A term whose floor is inexact
widens the bracket by one unit on the side its sign points to.  Term n is
exact at exponent e iff base**e divides 2**work, that is iff base = 2**t
with t*e <= work, so the inexact terms are counted from the class size
instead of tested one by one, and sums of dyadic terms stay exact.  Each
bracket is at most N units wide, and the prefactor magnifies it, so the
extra bits keep the row's error below a fraction of one unit of the
context.  It costs N (k + 1) floor divisions.

*The tail path* writes S_q(N) = c_q pi^q - R_q(N), with S_q(infinity) =
c_q pi^q and the tail R_q(N) = sum_{n>N} sign_n / base_n^q.  It costs
M (k + 1) divisions and a table of M Bernoulli numbers, whatever N.
``pi_coefficients`` reads the exact c_q off the tables as integer
(numerator, denominator) pairs, so the identity ``verify`` proves is read
from them, not assumed: from the Euler numbers,
beta(2m+1) = |E_2m| / (2^(2m+2) (2m)!) pi^(2m+1), and from the Bernoulli
numbers, zeta(2m) = (-1)^(m-1) 2^(2m-1) B_2m / (2m)! pi^(2m) (DLMF 25.6.2;
Abramowitz & Stegun 23.2.22).  ``tail_sums`` brackets R_q(N) as

    R_q(N) = sign * sum_{i>=0} F(y + h i),

a sum of one completely monotone F at equally spaced points:
F(x) = x^-q, y = N + 1, h = 1 for the plain sums; for the alternating
ones, which start at base 2N+1 with sign (-1)^N, each pair of consecutive
terms is one value of F(x) = x^-q - (x+2)^-q, y = 2N + 1, h = 4.  This F
is completely monotone too, as F(x) = q * integral_0^2 (x+s)^-(q+1) ds
is a positive mixture of completely monotone functions.  With
f(t) = F(y + h t), Euler-Maclaurin summation (DLMF 2.10.1, 2.10.2) gives

    sum_{i>=0} f(i) = integral_0^inf f + f(0)/2 + T_1 + ... + T_(M-1) + R_M,
    T_m = -B_2m / (2m)! f^(2m-1)(0),
    R_M = integral_0^inf (B_2M - B~_2M(t)) / (2M)! f^(2M)(t) dt,

where B~ is the periodic Bernoulli function.  In terms of F,
T_m = B_2m / (2m)! h^(2m-1) (q)_(2m-1) D_(q+2m-1)(y), with the rising
factorial (q)_r and D_r(x) = x^-r for the plain sums, x^-r - (x+2)^-r for
the pairs; the first two terms are D_q(y) / 2 and D_(q-1)(y) / (h (q-1)).

*First-omitted-term bound.*  On 0 < t < 1, B_2M(t) - B_2M keeps one sign:
it vanishes at 0 and 1 and is monotone on each half of [0, 1], as its
derivative 2M B_(2M-1)(t) vanishes inside (0, 1) only at t = 1/2, where
it is -(2 - 2^(1-2M)) B_2M (DLMF 24.4.27).  So B_2M - B~_2M(t) has the sign
of B_2M, and with f^(2M) > 0 so does R_M; so does T_M, as f^(2M-1) < 0.
Since R_M = T_M + R_(M+1), and R_(M+1) has the sign of B_(2M+2), the
opposite one, R_M lies between 0 and T_M: the tail lies between the sums
through T_(M-1) and through T_M.  ``tail_sums`` adds T_1 .. T_M and widens
both bounds by |T_M|, so it encloses the tail with any M.  It stops at the
first T_M below one unit, or at the last Bernoulli number it was given.

*The psi remainder.*  At q = 1 the pair sum is (1/4) (psi((y+2)/4) -
psi(y/4)), and the expansion above is the asymptotic series of the
digamma function (DLMF 5.11.2) for that difference; the same sign
argument bounds its remainder by its first omitted term.  Its integral
term is (1/4) ln((y+2)/y) = (1/2) artanh(1/z), z = y + 1 >= 4, summed as
(1/2) sum_i z^-(2i+1) / (2i+1) until a term falls below one unit.  Each
later term is below 1/z^2 <= 1/16 of the one before, so the rest of the
series adds less than 1/15 of a unit, and one unit on the upper bound
covers it.  Every term is one exact rational rounded outward once, so a
bracket is one unit wide per term it adds, plus 2 |T_M| and, at q = 1, the
unit for the rest of the log series.

*The path rule* reads N, k and the precision alone.  With
|B_2m| / (2m)! <= 2 zeta(2) (2 pi)^-2m, T_m is at most
4 (2 pi)^-2m h^(2m-1) (p)_(2m-1) y^-(p+2m-1), with y and h as above; M is
the first m where that bound falls below one unit.
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

from itertools import count, repeat
from math import comb, factorial, log2, pi
from operator import floordiv, mul

from .closed_forms import prefactor, prefactor_pair
from .numeric_engine import CertifiedReal, PrecisionContext
from .special_numbers import MAX_INDEX, bernoulli_numbers, euler_numbers, required_table_k

__all__ = ["partial_sum", "tail_bound"]

# The path rule and the direct limit; the module docstring derives each.
DIRECT_LIMIT = 10**7  # past this N the tail's own rounding is the row
TAIL_COST = 24  # one expansion term of one exponent, in direct terms

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


def power_sums(q: int, count: int, N: int, work: int) -> list[tuple[int, int]]:
    """Integer brackets ``(lo, hi)`` of 2**work * S_{q+2j}(N) for j < count,
    q >= 1; each is at most N units wide."""
    if q < 1:
        raise ValueError("q must be >= 1")
    one = 1 << work
    if q % 2:
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


def pi_coefficients(q: int, count: int, table) -> list[tuple[int, int]]:
    """The exact c_e > 0 with S_e(infinity) = c_e * pi^e, for e = q, q+2, ...,
    q + 2(count-1), as unreduced (numerator, denominator) pairs, from
    ``table.values``: the Euler numbers for odd q, the Bernoulli pairs for
    even q >= 2."""
    coefficients = []
    for e in range(q, q + 2 * count, 2):
        if q % 2:
            coefficients.append((abs(table.values[e // 2]), (1 << (e + 1)) * factorial(e - 1)))
        else:
            num, den = table.values[e // 2]
            coefficients.append(((num if e % 4 else -num) << (e - 1), den * factorial(e)))
    return coefficients


def _floor_ceil(num: int, den: int, work: int) -> tuple[int, int]:
    """Floor and ceiling of 2**work * num / den, for den > 0."""
    f, r = divmod(num << work, den)
    return f, f + (r != 0)


def tail_sums(q: int, count: int, N: int, work: int, bernoulli: tuple) -> list[tuple[int, int]]:
    """Integer brackets ``(lo, hi)`` of 2**work * R_{q+2j}(N) for j < count,
    the tails past n = N of the sums ``power_sums`` walks, from the
    Euler-Maclaurin expansion of the module docstring with the Bernoulli
    numbers ``bernoulli`` = (B_0, B_2, ..., B_2M), M >= 1, as (numerator,
    positive denominator) pairs: each tail takes
    terms until one is below a unit, or M of them.  q >= 2 for the plain
    sums."""
    alternating = q % 2
    y, h_bits = (2 * N + 1, 2) if alternating else (N + 1, 0)

    def diff(r: int) -> tuple[int, int]:  # D_r(y) as (numerator, denominator)
        P = y**r
        if not alternating:
            return 1, P
        Q = (y + 2) ** r
        return Q - P, P * Q

    brackets = []
    for e in range(q, q + 2 * count, 2):
        num, den = diff(e)
        lo, hi = _floor_ceil(num, 2 * den, work)
        if e > 1:
            num, den = diff(e - 1)
            f, c = _floor_ceil(num, (e - 1) * den << h_bits, work)
        else:  # (1/2) artanh(1/z), by its series
            f = c = 0
            z, i = y + 1, 0
            while True:
                term_f, term_c = _floor_ceil(1, 2 * (2 * i + 1) * z ** (2 * i + 1), work)
                f, c = f + term_f, c + term_c
                if not term_f:
                    break
                i += 1
            c += 1
        lo, hi = lo + f, hi + c
        for m in range(1, len(bernoulli)):
            b_num, b_den = bernoulli[m]
            num, den = diff(e + 2 * m - 1)
            # (e)_(2m-1) / (2m)! = C(e+2m-2, 2m-1) / (2m)
            weight = b_num * comb(e + 2 * m - 2, 2 * m - 1) * num << (2 * m - 1) * h_bits
            f, c = _floor_ceil(weight, b_den * 2 * m * den, work)
            lo, hi = lo + f, hi + c
            last = max(-f, c)
            if last <= 1:
                break
        lo, hi = lo - last, hi + last
        brackets.append((-hi, -lo) if alternating and N % 2 else (lo, hi))
    return brackets


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


def _tail_brackets(p: int, k: int, N: int, work: PrecisionContext) -> list[tuple[int, int]] | None:
    """Brackets (lo, hi) of 2**work.scale * S_(p+2j)(N) = c_q pi^q - R_q(N),
    q = p + 2j, for j <= k, from the tables and the tails, each widened by N
    units up to DIRECT_LIMIT; None where the path rule picks the walk."""
    terms = _tail_terms(p, k, N, work.scale)
    if not terms:
        return None
    top = required_table_k(p, k)  # the deepest c_q reads E_2top (odd p) or B_2top
    if p % 2:
        table, bernoulli = euler_numbers(top), bernoulli_numbers(terms)
    else:
        table = bernoulli = bernoulli_numbers(max(terms, top))
    coeffs = pi_coefficients(p, k + 1, table)
    tails = tail_sums(p, k + 1, N, work.scale, bernoulli.values[: terms + 1])
    power = work.pi_power(p)
    lo, hi = power.lo_m, power.hi_m  # of pi^q, all bounds positive
    pi2 = work.pi_power(2) if k else None  # steps pi^q to pi^(q+2)
    slack = N if N <= DIRECT_LIMIT else 0  # so that each holds the walk's bracket
    brackets = []
    for (c_num, c_den), (tail_lo, tail_hi) in zip(coeffs, tails):  # c > 0
        if brackets:
            lo, hi = lo * pi2.lo_m >> work.scale, -(-hi * pi2.hi_m >> work.scale)
        head_lo, head_hi = lo * c_num // c_den, -(-hi * c_num // c_den)
        brackets.append((head_lo - tail_hi - slack, head_hi - tail_lo + slack))
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
    pref = prefactor_pair(p, k)
    work = PrecisionContext(ctx.precision_bits + N.bit_length() + pref[0].bit_length() + 8)
    brackets = _tail_brackets(p, k, N, work)
    if brackets is not None:
        row = _row(work, brackets, k, pref)
        if N > DIRECT_LIMIT or _one_cell(row, ctx):
            return row.rounded_to(ctx)
    walked = power_sums(p, k + 1, N, work.scale)
    return _row(work, walked, k, pref).rounded_to(ctx)
