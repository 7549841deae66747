"""Prior published series for pi and pi^2 used as convergence baselines.

Four series are implemented:

* a one-parameter family for pi with positive rational parameter mu,
  4 sum_k (1+mu)^-(k+1) sum_m C(k,m) (-1)^m mu^(k-m) / (2m+1);
* pi^2 = 4 sum_k mu_k h_k / k   (mu_k the normalized binomial
  mid-coefficient (2k-1)!!/(2k)!!, h_k the odd harmonic numbers);
* pi^2 = 2 sum_k sigma_k / k    (sigma_n = p_n sum 1/(4k-1) + q_n sum 1/(4k-3)
  with the partial products p_n, q_n of (4k-1)/4k and (4k-3)/4k);
* pi^2 = 3 sum_k mu_k H_k / k   (H_k the harmonic numbers).

No convergence rates are published for these series, so the partial sums
carry no analytic tail estimate; they are plain certified enclosures of the
truncated sums.  Every recurrence runs on plain integers, fixed-point
mantissas on which each outward rounding is a floor division, and the CLI's
mu is read into a reduced integer pair, by ``read_mu``, without ``fractions``.

Each series takes a list of term counts and makes one pass up to the
largest: one driver, ``_enclosures``, runs the series' recurrence, a
generator that yields the integer brackets (N, lo, hi) at each requested
count, one (lo, hi) per series it sums.  alzer-h and alzer-H share mu_k,
so ``alzer_pair_partials`` sums both in one pass, each with its own
accumulators, exactness flag and budget: the same integers as two passes.
Each recurrence is floor-rounded at ``_GUARD = 24`` bits beyond the
context's scale and proves its error ahead of time, so the upper bound costs
no work per step.  Writing X for a quantity times 2^(scale+24) and x for its
computed floor-rounded mantissa, e = X - x is its error in units of
2^-(scale+24).  Every step of the pi^2 series applies one

    lemma: if x <= X <= x + e and y <= Y <= y + f, with a >= 0, b > 0, then
    0 <= (a X + Y)/b - floor((a x + y)/b) < 1 + (a e + f)/b,

since the floor removes less than 1 and the rest is (a (X-x) + (Y-y))/b.
Every x is a lower bound, by induction from the exact mantissas of 1 and 0.

* mu_k = mu_{k-1} (2k-1)/(2k), and g_k = mu_k h_k (H_k for ``alzer-H``)
  is tracked without a product of two mantissas:
  g_k = ((2k-1) g_{k-1} + mu_{k-1})/(2k)  with h_k = h_{k-1} + 1/(2k-1),
  g_k = ((2k-1) g_{k-1} + 2 mu_k)/(2k)     with H_k = H_{k-1} + 1/k.
  By the lemma e_mu(k) < 1 + e_mu(k-1), so e_mu(k) < k.  With
  e_g(k-1) <= 2(k-1), e_g(k) is below 1 + (k-1)(4k-1)/(2k) < 2k for h_k
  and below 1 + (4k^2-4k+2)/(2k) = 2k - 1 + 1/k <= 2k for H_k.  The
  term floor(w g_k / k) of weight w errs by less than 1 + 2w, so N terms
  err by less than the budget (2w+1) N.
* ``kolbig`` keeps p_n, q_n, u_n = p_n sum 1/(4k-1), v_n = q_n sum 1/(4k-3):
  p_n = (4n-1)/(4n) p_{n-1},  u_n = ((4n-1) u_{n-1} + p_{n-1})/(4n),
  q_n = (4n-3)/(4n) q_{n-1},  v_n = ((4n-3) v_{n-1} + q_{n-1})/(4n).
  As for mu, e_p(n), e_q(n) < n; with e_u(n-1) <= n-1, e_u(n) is below
  1 + ((4n-1)(n-1) + (n-1))/(4n) = n, and e_v(n) < n likewise.  The term
  floor(2 (u_n + v_n)/n) errs by less than 1 + 4n/n = 5: budget 5N.

The inner sum of the mu-parameterized family is evaluated through the exact
recurrence of J_k = integral_0^1 (mu - x^2)^k dx,

    (2k+1) J_k = (mu-1)^k + 2k mu J_{k-1},    J_0 = 1,

which reproduces the binomial double sum term by term: the k-th term is
4 J_k / (1+mu)^(k+1).  J_k grows like mu^k while the weight shrinks like
(1+mu)^-k, so the partial sum tracks their ratio t_k = J_k / (1+mu)^k and
r^k with r = (mu-1)/(mu+1) instead, both bounded by 1 in absolute value:

    (2k+1) t_k = 2k mu/(1+mu) t_{k-1} + r^k,    t_0 = 1,

and N terms sum to 4/(1+mu) (t_0 + ... + t_K), K = N - 1.  With mu = a/b,
c = a + b, rho = (a-b)/c and gamma = a/c, a step floors 2k a t_{k-1}/c,
then t_k = (that + r_k)/(2k+1), then r_{k+1} = (a-b) r_k/c.  Each floor
drops a fraction in [0, 1), but rho < 0 when mu < 1, so the errors are
signed: e_r(k) = rho e_r(k-1) + (a fraction), so |e_r(k)| < k as
|rho| < 1, and

    |e_t(k)| < 1 + gamma |e_t(k-1)| + (1 + |e_r(k)|)/(2k+1)
             <= 5/3 + gamma |e_t(k-1)|,

so |e_t(k)| < 5/(3 (1-gamma)) = 5c/(3b) by induction.  The sum floor(w/c),
w = 4b (t_0 + ... + t_K), misses (4b/c) sum e_t(k), below 20K/3 < 7K in
absolute value whatever mu is, and the fraction that floor dropped: the sum
lies in [floor(w/c) - 7K, ceil(w/c) + 7K].  When mu >= 1, rho >= 0 and
every error is >= 0 by induction, so the lower end is floor(w/c) itself.

So each sum has an integer bracket at ``_GUARD`` bits beyond the context's
scale, which the driver rounds outward onto the context once: for
N <= 10^5 each bracket spans fewer than 2^21 units, and the enclosure is at
most 2 units of 2^-scale wide.  The budget applies only once some floor has
dropped a remainder; until then every mantissa is exact, and so is a dyadic
sum such as ``kolbig`` at N <= 2 or the mu-family at mu = 1, N = 1.  The
guard is fixed, not derived from the largest N, so a row's bounds do not
depend on the other N of the call.

The mu-family stops stepping at its fixed point.  When a >= b, r and t
never fall below 0; when a < b, t can.  Once r = 0 (never at k = 0, where
r = one) it stays 0, and as nested floors by positive divisors are one
floor, a step k >= 1 is t -> floor(q t), q = 2k a/(c (2k+1)) in
(0, gamma).  So t >= 1 strictly falls (q t < t), t = 0 stays, and t = -1
stays (-1 < -q < 0).  A t <= -2 needs a < b, so gamma < 1/2 and
q t > t/2 >= t + 1: it strictly rises.  So (t, r) is a fixed point exactly
when r = 0 and t is 0 or -1, and every step from it adds t to acc, which
therefore takes the steps left before N at once, as t (N - k).  Nor does a
step from it change the exactness flag: at t = 0 every remainder is 0, and
t = -1 needs a < b, where r = one rho^k != 0 while no floor has dropped a
remainder, so the flag is off once r = 0.  The jump yields the same
integers as the steps, and a row costs only the steps before it settles.
t and r shrink about like max(gamma, |rho|)^k, so these grow with the
scale: at mu = 1 and mu = 5, 117 and 438 steps for --prec 64, 1,075 and
4,081 for --prec 1024; a larger mu or 1/mu takes more.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .numeric_engine import CertifiedReal, PrecisionContext

__all__ = [
    "alzer_H_partials",
    "alzer_h_partials",
    "alzer_pair_partials",
    "alzer_koumandos_partials",
    "kolbig_partials",
]

# Fixed, not derived from the largest N of a call, so that a row's bounds do
# not depend on the other rows; the budgets stay below 2^21 for N <= 10^5.
_GUARD = 24

MU_DIGITS = 4300  # Python's default int-to-str limit; series ids print mu
Mu = namedtuple("Mu", "numerator denominator")  # reduced, the denominator > 0


def _enclosures(recurrence, Ns: list[int], ctx: PrecisionContext, *args) -> list[list[CertifiedReal]]:
    """One column for each series that ``recurrence(one, stops, *args)``
    sums, one = 1 at ``_GUARD`` bits beyond ctx and stops the distinct N of
    Ns: the brackets it yields as (N, lo, hi, lo', hi', ...), each rounded
    outward onto ctx, in the order of Ns."""
    if min(Ns) < 1:
        raise ValueError("K must be >= 1")
    work = PrecisionContext(ctx.precision_bits + _GUARD)
    at = {N: [CertifiedReal(work, lo, hi).rounded_to(ctx) for lo, hi in zip(b[::2], b[1::2])]
          for N, *b in recurrence(1 << work.scale, set(Ns), *args)}
    return [list(column) for column in zip(*(at[N] for N in Ns))]


def _mu_family(one: int, stops: set[int], a: int, b: int):
    c = a + b
    r, t, acc, exact, done = one, 0, 0, True, 0
    for N in sorted(stops):
        for k in range(done, N):  # r enters as r^k and leaves as r^(k+1)
            if not r and -1 <= t <= 0:
                acc += t * (N - k)  # a fixed point: each step left adds t
                break
            y = 2 * k * a * t
            z = y // c + r
            t = z // (2 * k + 1)
            acc += t
            x = (a - b) * r
            r = x // c
            if exact:
                exact = not (y % c or z % (2 * k + 1) or x % c)
        done = N
        w = 4 * b * acc
        slack = 0 if exact else 7 * (N - 1)
        yield N, w // c - (slack if a < b else 0), -(-w // c) + slack


def read_mu(text: str, where: str) -> Mu:
    """The mu in ``text``, in the grammar of Python 3.12's ``Fraction(str)``
    (a sign, then ``a/b`` or digits with a point and/or an exponent), as a
    reduced pair, or a ValueError naming ``where``, its selector.  mu must be
    positive, with at most MU_DIGITS digits above and below its bar, a bound
    checked before any power of ten is built."""
    body = text.strip()
    negative = body[:1] == "-"
    runs = (body[1:] if body[:1] in ("+", "-") else body).split("_")
    # an underscore stands between two digits, of any script, and then goes
    valid = all(a[-1:].isdecimal() and b[:1].isdecimal() for a, b in zip(runs, runs[1:]))
    top, slash, den = "".join(runs).partition("/")
    top, den = top.rstrip(), den.lstrip()  # whitespace may stand beside the bar
    top, e, exp = top.replace("E", "e").partition("e")
    whole, point, frac = top.partition(".")
    signed = exp[1:] if exp[:1] in ("+", "-") else exp
    valid = valid and (whole + frac).isdecimal() and (not e or signed.isdecimal())
    valid = valid and (not slash or not (e or point) and den.isdecimal())
    if valid:
        try:  # int() refuses a digit run past its limit
            n, tail, x, d = (int(part or "0") for part in (whole, frac, exp, den or "1"))
        except ValueError:
            valid = False
    if not valid or not d:
        raise ValueError(f"{where} mu: cannot read {body!r} as Fraction")
    n, x = n * 10 ** len(frac) + tail, x - len(frac)
    far = abs(x) > MU_DIGITS + len(whole + frac)  # no mantissa brings 10^x back in range
    if n and not far:
        n, d = n * 10 ** max(x, 0), d * 10 ** max(-x, 0)
        g = gcd(n, d)
        n, d = n // g, d // g
    if n and (far or max(n, d) >= 10**MU_DIGITS):
        raise ValueError(
            f"{where} mu needs a numerator and denominator of at most {MU_DIGITS} digits"
        )
    if negative or not n:
        raise ValueError(f"{where} needs a positive mu (mu > 0)")
    return Mu(n, d)


def alzer_koumandos_partials(
    mu: Mu | Fraction | int, Ns: list[int], ctx: PrecisionContext
) -> list[CertifiedReal]:
    """Partial sums of 4 sum_{k<N} J_k / (1+mu)^(k+1), the mu-family for pi,
    one for each N in Ns; mu is anything with a numerator and a positive
    denominator (an int, a Fraction, or the pair ``read_mu`` returns)."""
    if mu.numerator <= 0:
        raise ValueError("the parameter mu must be positive")
    return _enclosures(_mu_family, Ns, ctx, mu.numerator, mu.denominator)[0]


def _mid_binomial(one: int, stops: set[int], odd: bool, full: bool):
    """4 sum_{k<=K} mu_k h_k / k, h_k the sum of 1/(2i-1) over i <= k, when
    ``odd``, and 3 sum_{k<=K} mu_k H_k / k, H_k that of 1/i, when ``full``,
    from one pass of mu_k: (K, lo, hi, lo', hi'), a series left out [0, 0]."""
    mu, g_h, g_H, acc_h, acc_H, exact_h, exact_H = one, 0, 0, 0, 0, True, True
    for k in range(1, max(stops) + 1):
        d = 2 * k
        mu_prev = mu
        x = (d - 1) * mu
        mu = x // d
        if odd:
            y = (d - 1) * g_h + mu_prev
            g_h = y // d
            z = 4 * g_h
            acc_h += z // k
            if exact_h:  # until a floor drops a remainder, every mantissa is exact
                exact_h = not (x % d or y % d or z % k)
        if full:
            y = (d - 1) * g_H + 2 * mu
            g_H = y // d
            z = 3 * g_H
            acc_H += z // k
            if exact_H:
                exact_H = not (x % d or y % d or z % k)
        if k in stops:
            # the budgets (2w+1) k at the weights w = 4 and w = 3
            yield k, acc_h, acc_h + (0 if exact_h else 9 * k), acc_H, acc_H + (0 if exact_H else 7 * k)


def alzer_pair_partials(Ns: list[int], ctx: PrecisionContext) -> list[list[CertifiedReal]]:
    """[alzer_h_partials(Ns, ctx), alzer_H_partials(Ns, ctx)] from one pass
    of mu_k."""
    return _enclosures(_mid_binomial, Ns, ctx, True, True)


def alzer_h_partials(Ns: list[int], ctx: PrecisionContext) -> list[CertifiedReal]:
    """Partial sums of 4 sum_{k<=K} mu_k h_k / k (odd harmonic weights), one
    for each K in Ns."""
    return _enclosures(_mid_binomial, Ns, ctx, True, False)[0]


def alzer_H_partials(Ns: list[int], ctx: PrecisionContext) -> list[CertifiedReal]:
    """Partial sums of 3 sum_{k<=K} mu_k H_k / k (full harmonic weights), one
    for each K in Ns."""
    return _enclosures(_mid_binomial, Ns, ctx, False, True)[1]


def _kolbig(one: int, stops: set[int]):
    p = q = one
    u = v = acc = 0
    exact = True
    for n in range(1, max(stops) + 1):
        d = 4 * n
        x = (d - 1) * u + p
        y = (d - 3) * v + q
        u, v = x // d, y // d
        p_num, q_num = (d - 1) * p, (d - 3) * q
        p, q = p_num // d, q_num // d
        z = 2 * (u + v)
        acc += z // n
        if exact:
            exact = not (x % d or y % d or p_num % d or q_num % d or z % n)
        if n in stops:
            yield n, acc, acc + (0 if exact else 5 * n)


def kolbig_partials(Ns: list[int], ctx: PrecisionContext) -> list[CertifiedReal]:
    """Partial sums of 2 sum_{k<=K} sigma_k / k, one for each K in Ns."""
    return _enclosures(_kolbig, Ns, ctx)[0]
