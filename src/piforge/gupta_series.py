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
``partial_sum`` takes all of them from one call of
``closed_forms.power_sums``, which walks the bases in integer blocks, and
evaluates the polynomial once, by Horner over j, returning the enclosure of
the finite sum alone; ``tail_bound`` bounds what it omits.  It works with
``N.bit_length() + prefactor.numerator.bit_length() + 8`` guard bits
beyond the context: each power-sum bracket is at most N units wide and the
prefactor magnifies it, so the extra bits keep the accumulated error below
a fraction of one unit of the context, and the result is rounded outward to
the context once.

Numeric evaluation deliberately uses the independent pi enclosure from
``numeric_engine``: these series are representations of powers of pi, not
bootstrap algorithms for it, and feeding them their own output would make
every convergence measurement circular.
"""

from __future__ import annotations

from fractions import Fraction

from .closed_forms import power_sums, prefactor
from .exact_core import factorial
from .numeric_engine import CertifiedReal, PrecisionContext

__all__ = ["partial_sum", "tail_bound"]

# Rational lower bound on pi (a continued-fraction convergent), used only to
# keep analytic tail bounds valid: 1/pi^2 <= (106/333)^2.
PI_LOWER = Fraction(333, 106)


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


def partial_sum(p: int, k: int, N: int, ctx: PrecisionContext) -> CertifiedReal:
    """Certified partial sum of family (p, k) over n = 1..N; at k = 0 this
    is the classical series for pi^p."""
    if N < 1:
        raise ValueError("N must be >= 1")
    pref = prefactor(p, k)
    extra = N.bit_length() + pref.numerator.bit_length() + 8
    work = PrecisionContext(ctx.precision_bits + extra)
    sums = power_sums(p % 2 == 1, p, k + 1, N, work.scale)
    inv_pi2 = work.inv_pi_squared()
    acc = work.zero()
    for j in range(k, -1, -1):
        lo, hi = sums[j]
        coeff = CertifiedReal(work, lo, hi).mul_ratio(1, factorial(2 * k - 2 * j + 1))
        acc = coeff - inv_pi2 * acc
    return acc.mul_ratio(pref.numerator, pref.denominator).rounded_to(ctx)
