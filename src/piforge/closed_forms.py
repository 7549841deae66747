"""The paper's prefactors, prefactor(p, k) = 2^((n+1) [p odd]) n! / tau_p(k)
with n = 2k + 2 floor(p/2) + 1 and ``tau`` a small rational in k and
y = 4^(k+1) (``exact_verifier`` checks identity (p, k) as T = D tau_p(k)),
and the two integer kernels behind every partial sum in piforge: the finite
power sums walked term by term, and their tails from a certified expansion.

``power_sums`` brackets the finite left-hand sides

    S_q(N) = sum_{n<=N} sign_n / base_n^q

for several exponents q, q+2, q+4, ... in one pure-integer pass over n.
The parity of q picks the series, here and in every function below: odd q
sums the alternating series over the odd bases 2n-1, with sign (-1)^(n+1),
and even q the plain series over the bases n.
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

The same sums at a cost independent of N: S_q(N) = c_q pi^q - R_q(N), with
S_q(infinity) = c_q pi^q and the tail R_q(N) = sum_{n>N} sign_n / base_n^q.
``pi_coefficients`` gives the exact c_q from the Euler numbers, beta(2m+1)
= |E_2m| / (2^(2m+2) (2m)!) pi^(2m+1), and from the Bernoulli numbers,
zeta(2m) = (-1)^(m-1) 2^(2m-1) B_2m / (2m)! pi^(2m) (DLMF 25.6.2;
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
covers it.

Every term is one exact rational rounded outward once, so a bracket is
one unit wide per term it adds, plus 2 |T_M| and, at q = 1, the unit for
the rest of the log series.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb
from operator import floordiv, mul

from .exact_core import factorial

__all__ = ["pi_coefficients", "power_sums", "prefactor", "tail_sums", "tau"]

# Bases per block: large enough that the per-block Python overhead is small,
# small enough that a block of floors at 1024 bits stays a fraction of a MB.
BLOCK = 256


# tau_p(k) as (numerator, denominator), from k and y = 4^(k+1)
_TAU = {
    1: lambda k, y: (1, 1),
    3: lambda k, y: (y - 1, 1),
    5: lambda k, y: (y * (2 * k * k + 9 * k + 6) + 1, 1),
    2: lambda k, y: (k + 1, 1),
    4: lambda k, y: (2 * (k + 1) * (k + 2), 3),
    6: lambda k, y: (8 * (k + 1) * (k + 2) * (k + 3) * (k + 5), 45),
}


def _tau_pair(p: int, k: int) -> tuple[int, int]:
    if k < 0:
        raise ValueError("k must be >= 0")
    if p not in _TAU:
        raise ValueError(f"power p must be in 1..6, got {p}")
    return _TAU[p](k, 4 << 2 * k)


def tau(p: int, k: int) -> Fraction:
    """tau_p(k) of family p at truncation order k (module docstring)."""
    return Fraction(*_tau_pair(p, k))


def prefactor(p: int, k: int) -> Fraction:
    """Exact rational multiplier of family p at truncation order k:
    2^((n+1) [p odd]) n! / tau_p(k), n = 2k + 2 floor(p/2) + 1."""
    num, den = _tau_pair(p, k)
    n = 2 * k + p // 2 * 2 + 1
    return Fraction(factorial(n) * den << (n + 1) * (p % 2), num)


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


def pi_coefficients(q: int, count: int, table) -> list[Fraction]:
    """The exact c_e with S_e(infinity) = c_e * pi^e, for e = q, q+2, ...,
    q + 2(count-1), from ``table.values``: the Euler numbers for odd q, the
    Bernoulli numbers for even q >= 2."""
    coefficients = []
    for e in range(q, q + 2 * count, 2):
        value = table.values[e // 2]
        if q % 2:
            coefficients.append(Fraction(abs(value), (1 << (e + 1)) * factorial(e - 1)))
        else:
            value = (1 << (e - 1)) * value / factorial(e)
            coefficients.append(value if e % 4 else -value)
    return coefficients


def _floor_ceil(num: int, den: int, work: int) -> tuple[int, int]:
    """Floor and ceiling of 2**work * num / den, for den > 0."""
    f, r = divmod(num << work, den)
    return f, f + (r != 0)


def tail_sums(q: int, count: int, N: int, work: int, bernoulli: tuple) -> list[tuple[int, int]]:
    """Integer brackets ``(lo, hi)`` of 2**work * R_{q+2j}(N) for j < count,
    the tails past n = N of the sums ``power_sums`` walks, from the
    Euler-Maclaurin expansion of the module docstring with the Bernoulli
    numbers ``bernoulli`` = (B_0, B_2, ..., B_2M), M >= 1: each tail takes
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
            b = bernoulli[m]
            num, den = diff(e + 2 * m - 1)
            # (e)_(2m-1) / (2m)! = C(e+2m-2, 2m-1) / (2m)
            weight = b.numerator * comb(e + 2 * m - 2, 2 * m - 1) * num << (2 * m - 1) * h_bits
            f, c = _floor_ceil(weight, b.denominator * 2 * m * den, work)
            lo, hi = lo + f, hi + c
            last = max(-f, c)
            if last <= 1:
                break
        lo, hi = lo - last, hi + last
        brackets.append((-hi, -lo) if alternating and N % 2 else (lo, hi))
    return brackets
