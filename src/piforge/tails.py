"""The tail path: integer brackets of the power sums S_q(N) of
``piforge.walk`` at a cost independent of N.

S_q(N) = c_q pi^q - R_q(N), with S_q(infinity) = c_q pi^q and the tail
R_q(N) = sum_{n>N} sign_n / base_n^q.  It costs M divisions per exponent
and a table of M Bernoulli numbers, whatever N.  ``pi_coefficients`` reads
the exact c_q off the tables as integer (numerator, denominator) pairs, so
the identity ``verify`` proves is read from them, not assumed: from the Euler
numbers, beta(2m+1) = |E_2m| / (2^(2m+2) (2m)!) pi^(2m+1), and from the
Bernoulli numbers, zeta(2m) = (-1)^(m-1) 2^(2m-1) B_2m / (2m)! pi^(2m)
(DLMF 25.6.2; Abramowitz & Stegun 23.2.22).  ``tail_sums`` brackets R_q(N)
as

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
Exponent e at term m and exponent e + 2 at term m - 1 read the same
D_r(y), so ``tail_sums`` builds each D_r(y) once per call.

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

``tailed_power_sums`` builds only the tables a row reads, steps pi^p by
pi^2 to each pi^q, and subtracts each tail from c_q pi^q rounded outward.
"""

from __future__ import annotations

from math import comb, factorial

from .numeric_engine import PrecisionContext
from .special_numbers import bernoulli_numbers, euler_numbers, required_table_k


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
    the tails past n = N of the sums ``walk.power_sums`` walks, from the
    Euler-Maclaurin expansion of the module docstring with the Bernoulli
    numbers ``bernoulli`` = (B_0, B_2, ..., B_2M), M >= 1, as (numerator,
    positive denominator) pairs: each tail takes
    terms until one is below a unit, or M of them.  q >= 2 for the plain
    sums."""
    alternating = q % 2
    y, h_bits = (2 * N + 1, 2) if alternating else (N + 1, 0)
    diffs = {}  # D_r(y) by r, each built once

    def diff(r: int) -> tuple[int, int]:  # D_r(y) as (numerator, denominator)
        if r not in diffs:
            P = y**r
            if alternating:
                Q = (y + 2) ** r
                diffs[r] = Q - P, P * Q
            else:
                diffs[r] = 1, P
        return diffs[r]

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


def tailed_power_sums(
    p: int, k: int, N: int, work: PrecisionContext, terms: int, slack: int
) -> list[tuple[int, int]]:
    """Brackets (lo, hi) of 2**work.scale * S_(p+2j)(N) = c_q pi^q - R_q(N),
    q = p + 2j, for j <= k, from the tables and tails of ``terms``
    Euler-Maclaurin terms, each widened by ``slack`` units."""
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
    brackets = []
    for (c_num, c_den), (tail_lo, tail_hi) in zip(coeffs, tails):  # c > 0
        if brackets:
            lo, hi = lo * pi2.lo_m >> work.scale, -(-hi * pi2.hi_m >> work.scale)
        head_lo, head_hi = lo * c_num // c_den, -(-hi * c_num // c_den)
        brackets.append((head_lo - tail_hi - slack, head_hi - tail_lo + slack))
    return brackets
