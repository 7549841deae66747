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
mantissas on which each outward rounding is a floor division.

Each series takes a list of term counts and makes one pass up to the
largest, keeping the sum at each requested count.  Each pass runs one
floor-rounded recurrence at ``_GUARD = 24`` bits beyond the context's scale
and proves its error ahead of time, so the upper bound costs no work per
step.  Writing X for a quantity times 2^(scale+24) and x for its computed
floor-rounded mantissa, e = X - x is its error in units of 2^-(scale+24).
Every step of the pi^2 series applies one

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
scale, which ``CertifiedReal.rounded_to`` rounds outward onto the context
once: for N <= 10^5 each bracket spans fewer than 2^21 units, and the
enclosure is at most 2 units of 2^-scale wide.  The budget applies only
once some floor has dropped a remainder; until then every mantissa is
exact, and so is a dyadic sum such as ``kolbig`` at N <= 2 or the mu-family
at mu = 1, N = 1.  The guard is fixed, not derived from the largest N, so
a row's bounds do not depend on the other N of the call.
"""

from __future__ import annotations

from fractions import Fraction

from .numeric_engine import CertifiedReal, PrecisionContext

__all__ = [
    "alzer_H_partials",
    "alzer_h_partials",
    "alzer_koumandos_partials",
    "kolbig_partials",
]

# Fixed, not derived from the largest N of a call, so that a row's bounds do
# not depend on the other rows; the budgets stay below 2^21 for N <= 10^5.
_GUARD = 24


def _stops(Ns: list[int]) -> set[int]:
    """The distinct term counts of Ns, each of which must be >= 1."""
    if min(Ns) < 1:
        raise ValueError("K must be >= 1")
    return set(Ns)


def alzer_koumandos_partials(
    mu: Fraction | int, Ns: list[int], ctx: PrecisionContext
) -> list[CertifiedReal]:
    """Partial sums of 4 sum_{k<N} J_k / (1+mu)^(k+1), the mu-family for pi,
    one for each N in Ns."""
    mu = Fraction(mu)
    if mu <= 0:
        raise ValueError("the parameter mu must be positive")
    stops = _stops(Ns)
    work = PrecisionContext(ctx.precision_bits + _GUARD)
    a, b = mu.numerator, mu.denominator
    c = a + b
    r, t, acc, exact = 1 << work.scale, 0, 0, True
    at = {}
    for k in range(max(stops)):  # r enters as r^k and leaves as r^(k+1)
        y = 2 * k * a * t
        z = y // c + r
        t = z // (2 * k + 1)
        acc += t
        x = (a - b) * r
        r = x // c
        if exact:
            exact = not (y % c or z % (2 * k + 1) or x % c)
        if k + 1 in stops:
            w = 4 * b * acc
            slack = 0 if exact else 7 * k
            lo = w // c - (slack if a < b else 0)
            at[k + 1] = CertifiedReal(work, lo, -(-w // c) + slack).rounded_to(ctx)
    return [at[N] for N in Ns]


def _mid_binomial_harmonic_partials(
    Ns: list[int], ctx: PrecisionContext, weight: int, odd: bool
) -> list[CertifiedReal]:
    """weight * sum_{k<=K} mu_k h_k / k for each K in Ns, where h_k sums
    1/(2i-1) over i <= k when ``odd`` and 1/i otherwise."""
    stops = _stops(Ns)
    work = PrecisionContext(ctx.precision_bits + _GUARD)
    mu, g, acc, exact = 1 << work.scale, 0, 0, True
    at = {}
    for k in range(1, max(stops) + 1):
        d = 2 * k
        mu_prev = mu
        x = (d - 1) * mu
        mu = x // d
        y = (d - 1) * g + (mu_prev if odd else 2 * mu)
        g = y // d
        z = weight * g
        acc += z // k
        if exact:  # until a floor drops a remainder, every mantissa is exact
            exact = not (x % d or y % d or z % k)
        if k in stops:
            budget = 0 if exact else (2 * weight + 1) * k
            at[k] = CertifiedReal(work, acc, acc + budget).rounded_to(ctx)
    return [at[K] for K in Ns]


def alzer_h_partials(Ns: list[int], ctx: PrecisionContext) -> list[CertifiedReal]:
    """Partial sums of 4 sum_{k<=K} mu_k h_k / k (odd harmonic weights), one
    for each K in Ns."""
    return _mid_binomial_harmonic_partials(Ns, ctx, 4, odd=True)


def alzer_H_partials(Ns: list[int], ctx: PrecisionContext) -> list[CertifiedReal]:
    """Partial sums of 3 sum_{k<=K} mu_k H_k / k (full harmonic weights), one
    for each K in Ns."""
    return _mid_binomial_harmonic_partials(Ns, ctx, 3, odd=False)


def kolbig_partials(Ns: list[int], ctx: PrecisionContext) -> list[CertifiedReal]:
    """Partial sums of 2 sum_{k<=K} sigma_k / k, one for each K in Ns."""
    stops = _stops(Ns)
    work = PrecisionContext(ctx.precision_bits + _GUARD)
    p = q = 1 << work.scale
    u = v = acc = 0
    exact = True
    at = {}
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
            at[n] = CertifiedReal(work, acc, acc + (0 if exact else 5 * n)).rounded_to(ctx)
    return [at[K] for K in Ns]
