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
``partial_sum`` evaluates it once, by Horner over j, on one of two paths,
and returns the enclosure of the finite sum alone; ``tail_bound`` bounds
what it omits.

*The direct walk* takes every S_q(N) from one call of
``closed_forms.power_sums``, which walks the bases in integer blocks, at
``N.bit_length() + prefactor.numerator.bit_length() + 8`` guard bits
beyond the context: each power-sum bracket is at most N units wide and the
prefactor magnifies it, so the extra bits keep the accumulated error below
a fraction of one unit of the context, and the result is rounded outward
to the context once.  It costs N (k + 1) floor divisions.

*The tail path* writes S_q(N) = c_q pi^q - R_q(N) (``closed_forms``), so
the row is

    pi^p * prefactor * rho - prefactor * sum_j (-1)^j pi^(-2j) R_{p+2j}(N) / (2k-2j+1)!,
    rho = sum_j (-1)^j c_{p+2j} / (2k-2j+1)!.

prefactor * rho is the ratio ``verify`` proves to be 1; it is computed
here from the tables, not assumed.  ``closed_forms.tail_sums`` brackets
each R_q(N) with M Euler-Maclaurin terms, TAIL_GUARD bits past the
context and the prefactor, so the brackets' few units each, magnified by
the prefactor, leave the enclosure about 2^-TAIL_GUARD units of the
context wide.  It costs M (k + 1) divisions and a table of M Bernoulli
numbers, whatever N.

*The path rule* reads N, k and the precision alone.  With
|B_2m| / (2m)! <= 2 zeta(2) (2 pi)^-2m, T_m is at most
4 (2 pi)^-2m h^(2m-1) (p)_(2m-1) y^-(p+2m-1) (y, h as in
``closed_forms``); M is the first m where that bound falls below one unit.
The tail runs where M exists within the MAX_INDEX tables, k + p // 2
does too, and M^2 / 4 + TAIL_COST M (k + 1) < N (k + 1): one term of one
exponent costs about TAIL_COST direct terms, the table about M^2 / 4.
Measured (CPython 3.11.7, 2 cores, rows with k <= 8), the tail overtakes
the walk from N = 400-800 at 128 bits and N = 1,600-4,000 at 1024 bits;
the rule switches at N = 330-500 and 1,900-3,200, so a row just past the
switch can cost up to about 1 ms more than its walk.  So the rows of
converge-sum in the benchmark (N >= 2e4 at 128 bits) take the tail, while
its N = 1 set-up job and the N = 100 and 1000 rows of compare-baselines at
1024 bits walk.
The rule gives N > TAIL_COST M, so y > 2M + 1 >= 2m + 1 for m <= M, and
then the bound on T_m for a higher exponent q = p + 2j is at most the one
for p: over one step of q it changes by the factor (q+2m-1)(q+2m) /
(q (q+1) y^2) < (q (2m+1))^2 / (q y)^2 < 1.  So every tail reaches a term
below one unit within M terms.

*The rounding decision.*  Below DIRECT_LIMIT the tail decides the walk's
rounding instead of replacing it, so a row prints the walk's bytes.
W = 2^-DIRECT_SLACK_BITS units of the context bounds the width of the
walk's enclosure before its final rounding, for N >= 16.  In units u of
the walk's scale: each power-sum bracket is at most N wide, and its
division by (2k-2j+1)! adds at most 2; pi from ``numeric_engine`` is at
most 2 wide, pi^2 at most 2 * 6.3 + 2 < 15, and 1/pi^2 < 0.1014 at most
15 / pi^4 + 2 < 3, so 2.  A Horner step a_j = c_j - a_{j+1} / pi^2 adds
at most 0.1014 w(a_{j+1}) + 2 |a_{j+1}| + 2, where |a| < 1.645 / (1 -
0.1014) < 1.84 as |S_q| <= zeta(2).  So w(a_0) < (N + 7.7) / (1 -
0.1014) < 1.113 (N + 7.7), and after the prefactor P < 2^b (b the bit
length of its numerator) 1.113 (N + 7.7) P + 2.  One unit of the context
is 2^(N.bit_length() + b + 8) u, and N + 7.7 < 1.25 * 2^N.bit_length()
for N >= 16, so the width is below 1.113 * 1.25 / 256 + 2^-12 < 0.0057
< 2^-7; and the rule gives N > TAIL_COST M >= 24 wherever the tail runs.
Now with the row x in the tail's [T_lo, T_hi] and in the walk's
[D_lo, D_hi], D_hi - D_lo <= W, the walk prints floor(D_lo) and
ceil(D_hi) on the context grid; D_lo lies in [T_lo - W, T_hi], so where
floor(T_lo - W) = floor(T_hi), that is floor(D_lo), and likewise
ceil(T_lo) = ceil(T_hi + W) is ceil(D_hi).  Where both hold the walk is
skipped; elsewhere, about 2W of the rows (10 of the 767 distinct 128-bit
rows of the converge-sum deck, seeds 1-5), it runs.

*Past DIRECT_LIMIT* = 10^7 terms, 3-25 s of walking at 128 bits, the
tail's own outward rounding is the row, so ``--terms`` up to 2^62 costs
what 10^5 does.  There 256 terms reach about 8,800 working bits; a row
that needs more walks.

Numeric evaluation deliberately uses the independent pi enclosure from
``numeric_engine``: these series are representations of powers of pi, not
bootstrap algorithms for it, and feeding them their own output would make
every convergence measurement circular.
"""

from __future__ import annotations

from fractions import Fraction
from math import log2, pi

from .closed_forms import pi_coefficients, power_sums, prefactor, tail_sums
from .exact_core import factorial
from .numeric_engine import CertifiedReal, PrecisionContext
from .special_numbers import MAX_INDEX, number_tables, required_table_k

__all__ = ["partial_sum", "tail_bound"]

# Rational lower bound on pi (a continued-fraction convergent), used only to
# keep analytic tail bounds valid: 1/pi^2 <= (106/333)^2.
PI_LOWER = Fraction(333, 106)

# The path rule and the rounding decision; the module docstring derives each.
DIRECT_LIMIT = 10**7  # past this N the tail's own rounding is the row
DIRECT_SLACK_BITS = 7  # W = 2^-DIRECT_SLACK_BITS units of the context
TAIL_GUARD = 32  # bits the tail works past the context and the prefactor
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
    ``work`` bits, or 0 where the direct walk is the path: the terms do not
    fall below 2^-work within the ``MAX_INDEX`` tables, or they cost more
    than the walk."""
    if required_table_k(p, k) > MAX_INDEX // 2:
        return 0
    h, y = (4, 2 * N + 1) if p % 2 else (1, N + 1)
    # log2 of the bound 4 (2 pi)^-2m h^(2m-1) (p)_(2m-1) y^-(p+2m-1) on T_m
    size = 2 - 2 * log2(2 * pi) + log2(h * p) - (p + 1) * log2(y)
    for m in range(1, MAX_INDEX // 2 + 1):
        if size < -work:
            return m if m * m / 4 + TAIL_COST * m * (k + 1) < N * (k + 1) else 0
        step = log2((p + 2 * m - 1) * (p + 2 * m) * h * h / (4 * pi * pi * y * y))
        if step >= 0:
            return 0
        size += step
    return 0


def _horner(work: PrecisionContext, brackets: list[tuple[int, int]], k: int) -> CertifiedReal:
    """sum_j (-1)^j pi^(-2j) s_j / (2k-2j+1)! for j <= k, by Horner over j,
    from the brackets (lo, hi) of 2**work.scale * s_j."""
    inv_pi2 = work.inv_pi_squared()
    acc = work.zero()
    for j in range(k, -1, -1):
        lo, hi = brackets[j]
        coeff = CertifiedReal(work, lo, hi).mul_ratio(1, factorial(2 * k - 2 * j + 1))
        acc = coeff - inv_pi2 * acc
    return acc


def _direct_sum(p: int, k: int, N: int, pref: Fraction, ctx: PrecisionContext) -> CertifiedReal:
    """The row from the power sums walked term by term, on a context
    N.bit_length() + 8 bits past ``ctx`` and the prefactor."""
    work = PrecisionContext(ctx.precision_bits + N.bit_length() + pref.numerator.bit_length() + 8)
    sums = power_sums(p % 2 == 1, p, k + 1, N, work.scale)
    return _horner(work, sums, k).mul_ratio(pref.numerator, pref.denominator)


def _tail_sum(
    p: int, k: int, N: int, pref: Fraction, ctx: PrecisionContext
) -> CertifiedReal | None:
    """The row as pi^p prefactor rho - prefactor sum_j (-1)^j pi^(-2j)
    R_(p+2j)(N) / (2k-2j+1)!, on a context ``TAIL_GUARD`` bits past ``ctx``
    and the prefactor; None where the path rule picks the direct walk."""
    work = PrecisionContext(ctx.precision_bits + pref.numerator.bit_length() + TAIL_GUARD)
    terms = _tail_terms(p, k, N, work.scale)
    if not terms:
        return None
    alternating = p % 2 == 1
    top = required_table_k(p, k)  # the deepest c_q reads E_2top or B_2top
    euler, bernoulli = number_tables(top if alternating else 0, max(terms, top))
    coeffs = pi_coefficients(alternating, p, k + 1, euler, bernoulli)
    # prefactor * rho, verify's ratio: 1 wherever identity (p, k) holds
    ratio = pref * sum((-1) ** j * c / factorial(2 * k - 2 * j + 1) for j, c in enumerate(coeffs))
    tails = tail_sums(alternating, p, k + 1, N, work.scale, bernoulli.values[: terms + 1])
    head = work.pi_power(p).mul_ratio(ratio.numerator, ratio.denominator)
    return head - _horner(work, tails, k).mul_ratio(pref.numerator, pref.denominator)


def _settled(value: CertifiedReal, ctx: PrecisionContext) -> CertifiedReal | None:
    """The direct walk's row on ``ctx``, where the enclosure ``value`` of
    the row decides both of its roundings; else None."""
    shift = value.ctx.scale - ctx.scale
    slack = 1 << (shift - DIRECT_SLACK_BITS)  # W on the scale of value
    lo, hi = value.lo_m, value.hi_m
    lo_ctx, hi_ctx = (lo - slack) >> shift, -((-hi - slack) >> shift)
    if lo_ctx != hi >> shift or hi_ctx != -((-lo) >> shift):
        return None
    return CertifiedReal(ctx, lo_ctx, hi_ctx)


def partial_sum(p: int, k: int, N: int, ctx: PrecisionContext) -> CertifiedReal:
    """Certified partial sum of family (p, k) over n = 1..N; at k = 0 this
    is the classical series for pi^p."""
    if N < 1:
        raise ValueError("N must be >= 1")
    pref = prefactor(p, k)
    value = _tail_sum(p, k, N, pref, ctx)
    if value is not None:
        if N > DIRECT_LIMIT:
            return value.rounded_to(ctx)
        settled = _settled(value, ctx)
        if settled is not None:
            return settled
    return _direct_sum(p, k, N, pref, ctx).rounded_to(ctx)
