from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from piforge import gupta_series
from piforge.closed_forms import power_sums, tau
from piforge.gupta_series import partial_sum, prefactor, tail_bound
from piforge.numeric_engine import CertifiedReal, PrecisionContext

from oracles import CLASSICAL_COEFF, contains, hurwitz_row, inner_poly, widened

small_rationals = st.fractions(
    min_value=Fraction(0), max_value=Fraction(1, 4), max_denominator=10**4
)

# Constants printed in the per-k verification lines, k = 1..4 where the
# leading power of two is shown with the factorial distributed into the
# bracket, and k = 0..4 where the whole prefactor is printed.
P1_POW2 = {1: 16, 2: 64, 3: 256, 4: 1024}
P3_PRINTED = {
    1: Fraction(512),
    2: Fraction(20480),
    3: Fraction(371589120, 255),
    4: Fraction(4954521600, 31),
}
P5_PRINTED = {
    0: Fraction(1536, 5),
    1: Fraction(256 * 5040, 273),
    2: Fraction(1024 * 362880, 2049),
    3: Fraction(4096 * 39916800, 13057),
    4: Fraction(16384 * 6227020800, 75777),
}
P2_PRINTED = {0: 6, 1: 60, 2: 1680, 3: 90720, 4: 7983360}
P4_PRINTED = {0: 90, 1: 1260, 2: 45360, 3: 2993760, 4: 311351040}
P6_PRINTED = {0: 945, 1: 14175, 2: 534600, 3: 36486450, 4: 3891888000}


def test_prefactor_printed_constants():
    for k, pow2 in P1_POW2.items():
        assert prefactor(1, k) == pow2 * factorial(2 * k + 1)
    for table, p in ((P3_PRINTED, 3), (P5_PRINTED, 5)):
        for k, expected in table.items():
            assert prefactor(p, k) == expected
    for table, p in ((P2_PRINTED, 2), (P4_PRINTED, 4), (P6_PRINTED, 6)):
        for k, expected in table.items():
            assert prefactor(p, k) == expected


def test_prefactor_k0_collapse():
    for p, coeff in CLASSICAL_COEFF.items():
        assert prefactor(p, 0) == coeff
        assert inner_poly(0, Fraction(7, 9)) == 1


def test_prefactor_validation():
    for f in (prefactor, tau):
        with pytest.raises(ValueError):
            f(7, 0)
        with pytest.raises(ValueError):
            f(2, -1)


@given(small_rationals)
def test_inner_poly_k1_symbolic(x):
    assert inner_poly(1, x) == Fraction(1, 6) - x


def test_inner_poly_examples():
    assert inner_poly(2, Fraction(0)) == Fraction(1, 120)
    x = Fraction(3, 17)
    assert inner_poly(2, x) == Fraction(1, 120) - x / 6 + x * x


def test_term_examples(ctx128):
    # single terms, read off the partial sums over one and two terms
    t = partial_sum(1, 0, 1, ctx128)
    assert t.lo == t.hi == 4
    first = partial_sum(2, 0, 1, ctx128)
    second = partial_sum(2, 0, 2, ctx128) - first
    assert second.lo == second.hi == Fraction(3, 2)
    # 60*(1/6 - 1/pi^2), brute-forced independently to 3.92072898145973371...
    t = partial_sum(2, 1, 1, ctx128)
    assert Fraction("3.920728981459733713") < t.lo
    assert t.hi < Fraction("3.920728981459733714")


def mpmath_partial_sum(p, k, N):
    """The family's partial sum, term by term at 300 bits, as an exact
    rational."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 300
    pref = prefactor(p, k)
    total = mpmath.mpf(0)
    for n in range(1, N + 1):
        if p % 2 == 1:
            base = 2 * n - 1
            outer = mpmath.mpf((-1) ** (n + 1)) / base**p
        else:
            base = n
            outer = mpmath.mpf(1) / base**p
        x = 1 / (mpmath.mpf(base) ** 2 * mpmath.pi**2)
        poly = sum((-x) ** j / factorial(2 * k - 2 * j + 1) for j in range(k + 1))
        total += outer * poly
    total *= mpmath.mpf(pref.numerator) / pref.denominator
    man, exp = total.man_exp  # the mantissa is unsigned
    return (-1 if total < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def test_partial_sum_against_independent_oracle(ctx128):
    for p, k, N in ((3, 2, 50), (2, 1, 50), (6, 2, 25), (5, 1, 30)):
        enclosure = widened(partial_sum(p, k, N, ctx128), Fraction(1, 2**250))
        assert contains(enclosure, mpmath_partial_sum(p, k, N))


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=300),
)
@example(1, 8, 300)
@settings(max_examples=40, deadline=None)
def test_partial_sum_encloses_tightly(p, k, N):
    """The enclosure holds the 300-bit value (up to its rounding error, far
    below 2^-200 here) and is no wider than 2^-precision_bits, whatever
    the prefactor."""
    ctx = PrecisionContext(128)
    value = partial_sum(p, k, N, ctx)
    assert contains(widened(value, Fraction(1, 2**200)), mpmath_partial_sum(p, k, N))
    assert value.width <= Fraction(1, 2**ctx.precision_bits)


def classical_sum(p: int, N: int) -> Fraction:
    """c_p * sum_{n<=N} sign_n / base_n^p in exact rationals."""
    if p % 2 == 1:
        terms = (Fraction((-1) ** (n + 1), (2 * n - 1) ** p) for n in range(1, N + 1))
    else:
        terms = (Fraction(1, n**p) for n in range(1, N + 1))
    return CLASSICAL_COEFF[p] * sum(terms)


def test_collapse_to_classical(ctx128):
    """At k = 0 the family is the classical series, term for term."""
    for p in range(1, 7):
        for N in (1, 10, 1000):
            value = partial_sum(p, 0, N, ctx128)
            assert contains(value, classical_sum(p, N)), (p, N)
            assert value.width <= Fraction(1, 2**ctx128.precision_bits)


def test_classical_values(ctx128):
    v = partial_sum(4, 0, 1, ctx128)
    assert v.lo == v.hi == 90
    v = partial_sum(6, 0, 1, ctx128)
    assert v.lo == v.hi == 945
    v = partial_sum(2, 0, 2, ctx128)
    assert v.lo == v.hi == Fraction(15, 2)
    assert contains(partial_sum(1, 0, 1, ctx128), 4)


def test_tail_bound_formula():
    # leading term for (p=2, k=2) is 1680 / (120 N) = 14 / N
    for N in (10**3, 10**4):
        bound = tail_bound(2, 2, N)
        assert Fraction(14, N) < bound < Fraction(14, N) * Fraction(101, 100)
    # Leibniz case: first omitted term
    assert tail_bound(1, 0, 1000) == Fraction(4, 2001)


def test_residual_within_tail(ctx128):
    pi_targets = {p: ctx128.pi_power(p) for p in (1, 2, 5)}
    for p, k in ((1, 1), (2, 2), (5, 0)):
        previous = None
        for N in (500, 2000):
            value = partial_sum(p, k, N, ctx128)
            tail = tail_bound(p, k, N)
            assert contains(widened(value, tail), pi_targets[p])
            residual = abs(value.mid - pi_targets[p].mid)
            assert residual <= tail
            assert residual >= tail / 4
            if previous is not None:
                assert residual < previous
            previous = residual


def test_validation(ctx128):
    with pytest.raises(ValueError):
        partial_sum(1, 0, 0, ctx128)
    with pytest.raises(ValueError):
        partial_sum(7, 0, 10, ctx128)


# The two sources of a row's power-sum brackets, on the context partial_sum
# evaluates both on, each made into the unrounded row by the one Horner
# evaluation: the tail's (None where the path rule picks the direct walk),
# widened up to the direct limit, and the walk's.
def work_context(p, k, N, ctx):
    bits = N.bit_length() + prefactor(p, k).numerator.bit_length() + 8
    return PrecisionContext(ctx.precision_bits + bits)


def tail(p, k, N, ctx):
    work = work_context(p, k, N, ctx)
    brackets = gupta_series._tail_brackets(p, k, N, work)
    return None if brackets is None else gupta_series._row(work, brackets, k, prefactor(p, k))


def walk(p, k, N, ctx):
    work = work_context(p, k, N, ctx)
    brackets = power_sums(p, k + 1, N, work.scale)
    return gupta_series._row(work, brackets, k, prefactor(p, k))


@given(
    st.integers(1, 6),
    st.integers(0, 30),
    st.integers(330, 5_000),
    st.integers(64, 1024),
)
@example(2, 0, 2**12 - 1, 64)  # the widest walk for its N.bit_length()
@example(6, 30, 5_000, 1024)
@settings(max_examples=25, deadline=None)
def test_widened_tail_holds_the_walk(p, k, N, prec):
    """The premise of the rounding: each tail bracket, widened by N units,
    holds the walk's, and so the tail's row E holds the walk's unrounded
    row D on the walk's own scale."""
    ctx = PrecisionContext(prec)
    work = work_context(p, k, N, ctx)
    brackets = gupta_series._tail_brackets(p, k, N, work)
    assume(brackets is not None)
    walked = power_sums(p, k + 1, N, work.scale)
    for (lo, hi), (walk_lo, walk_hi) in zip(brackets, walked):
        assert lo <= walk_lo <= walk_hi <= hi
    assert contains(tail(p, k, N, ctx), walk(p, k, N, ctx))


def test_one_cell_rule():
    """An enclosure decides the rounding only when both of its ends have one
    floor and one ceiling on the coarser grid: not with a grid point inside
    it, nor with an end on one, unless it is that grid point alone."""
    ctx, fine = PrecisionContext(64), PrecisionContext(64 + 40)
    unit = 1 << 40  # one unit of ctx on the scale of fine
    one_cell = gupta_series._one_cell
    for lo, hi in ((5 * unit - 1, 5 * unit + 1), (5 * unit + 7, 7 * unit - 7)):  # a grid point inside
        assert not one_cell(CertifiedReal(fine, lo, hi), ctx)
    for lo, hi in ((5 * unit, 5 * unit + 1), (6 * unit - 1, 6 * unit)):  # an end on a grid point
        assert not one_cell(CertifiedReal(fine, lo, hi), ctx)
    inside = CertifiedReal(fine, 5 * unit + 1, 6 * unit - 1)  # strictly inside one cell
    assert one_cell(inside, ctx) and inside.rounded_to(ctx) == CertifiedReal(ctx, 5, 6)
    point = CertifiedReal(fine, 5 * unit, 5 * unit)  # one grid point
    assert one_cell(point, ctx) and point.rounded_to(ctx) == CertifiedReal(ctx, 5, 5)


@given(st.integers(-40, 40), st.integers(0, 40), st.data())
def test_one_cell_rounds_every_inner_enclosure_alike(lo, width, data):
    """Where the rule holds, every enclosure inside rounds as the outer one."""
    ctx, fine = PrecisionContext(64), PrecisionContext(64 + 3)
    outer = CertifiedReal(fine, lo, lo + width)
    inner_lo = data.draw(st.integers(lo, lo + width))
    inner = CertifiedReal(fine, inner_lo, data.draw(st.integers(inner_lo, lo + width)))
    if gupta_series._one_cell(outer, ctx):
        assert inner.rounded_to(ctx) == outer.rounded_to(ctx)


def test_path_rule():
    """N = 1 walks and N = 10^5 takes the tail at 128 bits; compare's
    1024-bit rows at N = 100 and 1000 walk, and at 10^4 take the tail."""
    ctx, wide = PrecisionContext(128), PrecisionContext(1024)
    for p in range(1, 7):
        for k in (0, 1, 8):
            assert tail(p, k, 1, ctx) is None
            assert tail(p, k, 10**5, ctx) is not None
    for p, k in ((1, 0), (1, 8), (2, 0), (2, 2)):
        assert tail(p, k, 100, wide) is None and tail(p, k, 1000, wide) is None
        assert tail(p, k, 10**4, wide) is not None
    # orders whose c_q lie past the tables always walk
    assert gupta_series._tail_terms(2, 256, 10**12, 256) == 0
    # the count of terms ends on the cost rule, not at the tables' depth
    assert gupta_series._tail_terms(1, 0, 10**7 + 1, 9000 + 32 + 24 + 3 + 8) > 256


@pytest.mark.parametrize(
    "p, k, N, prec, orders",
    [
        # odd p: the Euler numbers its c_q read, and the Bernoulli numbers
        # its 50 tail terms read, not k + p // 2 = 200 of them
        (1, 200, 10**12, 256, (200, 50)),
        # even p: one table, as deep as the c_q or the tail reach
        (2, 200, 10**12, 256, (0, 201)),
        (4, 3, 10**12, 128, (0, 5)),
        (1, 8, 10**5, 128, (8, 9)),
    ],
)
def test_tail_asks_for_the_tables_it_reads(monkeypatch, p, k, N, prec, orders):
    """A tail row asks ``number_tables`` once, for the Euler numbers of its
    c_q (odd p) and for no Bernoulli number past what its c_q (even p) and
    its tail's term count read."""
    requests = []
    tables = gupta_series.number_tables
    monkeypatch.setattr(gupta_series, "number_tables", lambda *a: requests.append(a) or tables(*a))
    ctx = PrecisionContext(prec)
    partial_sum(p, k, N, ctx)
    terms = gupta_series._tail_terms(p, k, N, work_context(p, k, N, ctx).scale)
    assert requests == [orders]
    assert orders[1] == (terms if p % 2 else max(terms, k + p // 2))


@given(
    st.integers(1, 6),
    st.integers(0, 8),
    st.integers(330, 30_000),
    st.sampled_from((64, 96, 128, 256, 1024)),
)
@example(1, 8, 30_000, 1024)
@example(3, 2, 65_974, 128)  # a converge-sum deck row that needed the walk before
@example(4, 0, 28_523, 128)  # the one such row that still does
@example(2, 0, 31_312, 128)  # unwidened, the tail would round these two off the walk's
@example(6, 0, 1_024_231, 128)
@settings(max_examples=20, deadline=None)
def test_tail_settles_only_to_the_walked_row(p, k, N, prec):
    """Wherever the rule picks the tail, a rounding it settles is the
    walk's, and partial_sum returns the walk's row bit for bit."""
    ctx = PrecisionContext(prec)
    value = tail(p, k, N, ctx)
    assume(value is not None)
    walked = walk(p, k, N, ctx).rounded_to(ctx)
    assert not gupta_series._one_cell(value, ctx) or value.rounded_to(ctx) == walked
    assert partial_sum(p, k, N, ctx) == walked


def test_undecided_rows_walk(monkeypatch):
    """With no rounding decided, every row up to the direct limit walks and
    prints the walk's row, and rows past it keep the tail's own rounding."""
    ctx = PrecisionContext(128)
    rows = ((1, 8, 20_000), (6, 5, 40_152), (2, 0, 10**4))
    expected = [partial_sum(p, k, N, ctx) for p, k, N in rows]
    far = partial_sum(2, 3, 10**9, ctx)
    walks = []
    monkeypatch.setattr(gupta_series, "_one_cell", lambda value, ctx: False)
    monkeypatch.setattr(gupta_series, "power_sums", lambda *a: walks.append(a) or power_sums(*a))
    for (p, k, N), row in zip(rows, expected):
        assert partial_sum(p, k, N, ctx) == row == walk(p, k, N, ctx).rounded_to(ctx)
    assert len(walks) == len(rows)
    assert partial_sum(2, 3, 10**9, ctx) == far == tail(2, 3, 10**9, ctx).rounded_to(ctx)
    assert len(walks) == len(rows)


def test_deck_rows_walk_only_at_k0(monkeypatch):
    """The ten converge-sum deck rows (seeds 1-5) that a tail proved only to
    a k = 0 width left to the walk: each returns the walk's row, and none
    with k >= 1 walks."""
    ctx = PrecisionContext(128)
    rows = [
        (2, 0, 27189), (3, 2, 65974), (3, 2, 68529), (3, 2, 69187), (4, 0, 28523),
        (5, 3, 48790), (5, 3, 49103), (5, 3, 50130), (5, 3, 51211), (6, 5, 39859),
    ]
    walks = []
    monkeypatch.setattr(gupta_series, "power_sums", lambda *a: walks.append(a) or power_sums(*a))
    for p, k, N in rows:
        assert partial_sum(p, k, N, ctx) == walk(p, k, N, ctx).rounded_to(ctx), (p, k, N)
    assert all(count == 1 for _, count, _, _ in walks)  # k + 1 exponents: k = 0


@pytest.mark.parametrize("prec", (128, 1024, 9000))
def test_tail_encloses_hurwitz_row(prec):
    """The tail's row holds the mpmath row from Hurwitz zeta values at N up
    to 10^12; past the direct limit, unwidened, it is the row partial_sum
    returns."""
    ctx = PrecisionContext(prec)
    rows = [(1, 8, 10**4), (6, 5, 10**5), (3, 2, 10**7 + 1), (2, 0, 10**9), (5, 3, 10**12)]
    if prec == 128:
        rows += [(1, 0, 10**12), (4, 1, 3 * 10**10), (2, 8, 10**6)]
    if prec == 9000:  # more Euler-Maclaurin terms than the tables' 256 Bernoulli numbers
        rows = [(1, 0, 10**7 + 1)]
    for p, k, N in rows:
        value = tail(p, k, N, ctx)
        row = hurwitz_row(p, k, N, value.ctx.scale + 64)
        assert contains(widened(value, Fraction(1, 2 ** (value.ctx.scale + 8))), row), (p, k, N)
        if N > gupta_series.DIRECT_LIMIT:
            assert partial_sum(p, k, N, ctx) == value.rounded_to(ctx)
        assert value.width < Fraction(1, 2 ** (ctx.scale + 16))
