from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from piforge import numeric_engine
from piforge.numeric_engine import GUARD_BITS, CertifiedReal, PrecisionContext

from conftest import PI_100_DIGITS
from oracles import arctan_inv_bracket, contains, hi_of, lo_of, quotient, widened, width_of

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=10**4
)
nonzero = rationals.filter(lambda q: abs(q) > Fraction(1, 100))


def test_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(32)
    assert PrecisionContext(64).scale == 64 + GUARD_BITS


def test_add_trivial(ctx128):
    one = ctx128.from_rational(1)
    two = ctx128.from_rational(2)
    three = one + two
    assert lo_of(three) == 3 and hi_of(three) == 3
    assert repr(three) == f"CertifiedReal(lo_m=0x3{'0' * 40}, hi_m=0x3{'0' * 40}, scale=160)"
    assert repr(CertifiedReal(ctx128, 0, 0) - three).startswith("CertifiedReal(lo_m=-0x3")
    assert repr(PrecisionContext(20_000).pi())  # mantissas of over 4,300 decimal digits


def test_from_rational_ulp_contract():
    ctx = PrecisionContext(64)
    third = ctx.from_rational(Fraction(1, 3))
    assert width_of(third) <= Fraction(1, 2**63)
    assert lo_of(third) <= Fraction(1, 3) <= hi_of(third)
    # dyadic inputs are exact
    q = ctx.from_rational(Fraction(5, 8))
    assert lo_of(q) == hi_of(q) == Fraction(5, 8)


def test_division_by_zero_interval(ctx128):
    unit = 1 << ctx128.scale
    with pytest.raises(ZeroDivisionError):
        quotient(ctx128.from_rational(1), CertifiedReal(ctx128, -unit, unit))
    with pytest.raises(ZeroDivisionError):
        ctx128.from_rational(1).mul_ratio(1, 0)


def test_mixed_contexts_rejected(ctx128):
    other = PrecisionContext(256)
    with pytest.raises(ValueError):
        ctx128.from_rational(1) + other.from_rational(1)
    with pytest.raises(ValueError, match="rounded_to cannot refine the scale"):
        ctx128.from_rational(1).rounded_to(other)


def test_inverted_bounds_rejected(ctx128):
    with pytest.raises(ValueError):
        CertifiedReal(ctx128, 1, 0)


def test_pi_contains_published_digits():
    for bits in (64, 128, 256):
        ctx = PrecisionContext(bits)
        pi = ctx.pi()
        assert width_of(pi) <= Fraction(1, 2**bits)
        assert contains(pi, PI_100_DIGITS)


def test_pi_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 400
    ref = +mpmath.pi  # binary float man * 2**exp, exactly convertible
    exact = Fraction(int(ref.man)) * Fraction(2) ** int(ref.exp)
    pi = PrecisionContext(256).pi()
    assert contains(pi, exact)


def _mpf_fraction(value) -> Fraction:
    """An mpmath binary float as the exact rational it stores."""
    return Fraction(int(value.man)) * Fraction(2) ** int(value.exp)


@pytest.mark.parametrize("bits", [64, 128, 1024])
def test_pi_powers_against_mpmath(bits):
    mpmath = pytest.importorskip("mpmath")
    ctx = PrecisionContext(bits)
    pi = ctx.pi()
    power = pi
    with mpmath.workprec(2 * bits):
        inv_pi2_ref = _mpf_fraction(1 / mpmath.pi**2)
        for p in range(1, 7):
            value = ctx.pi_power(p)
            assert contains(value, _mpf_fraction(mpmath.pi**p))
            assert contains(power, value)  # no wider than p interval products
            power = power * pi
    assert contains(ctx.inv_pi_squared(), inv_pi2_ref)


# Work bits from 96 to 4,096: both ends, powers of two and their neighbours.
MACHIN_BITS = [96, 97, 127, 128, 129, 200, 256, 511, 1000, 1024, 2048, 3001, 4095, 4096]


@pytest.mark.parametrize("q", [5, 239])
def test_arctan_bracket_bounds_against_mpmath(q):
    """Each bound of arctan(1/q) * 2^w lies on its own side of mpmath's value
    at 2w bits, which is within 2^-w of the true value."""
    mpmath = pytest.importorskip("mpmath")
    for w in MACHIN_BITS:
        lo, hi = numeric_engine._arctan_inv_mantissas(q, w)
        with mpmath.workprec(2 * w):
            ref = _mpf_fraction(mpmath.atan(mpmath.mpf(1) / q)) * 2**w
        assert lo <= ref, (q, w)
        assert ref <= hi, (q, w)


@pytest.mark.parametrize("q", [5, 239])
def test_arctan_bracket_bounds_against_fractions(q):
    """Each bound of arctan(1/q) * 2^w lies on its own side of an exact
    bracket of arctan(1/q), two partial sums of its Taylor series less than
    2^-2w apart."""
    for w in MACHIN_BITS:
        lo, hi = numeric_engine._arctan_inv_mantissas(q, w)
        below, above = arctan_inv_bracket(q, w)
        assert Fraction(lo, 1 << w) <= below, (q, w)
        assert above <= Fraction(hi, 1 << w), (q, w)


def test_pi_bracket_bounds_without_guard_bits(monkeypatch):
    """With no work bits past the scale, the arctan slack reaches the
    returned bounds, so each side tests the Machin budget itself."""
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(numeric_engine, "_PI_GUARD", 0)
    for s in MACHIN_BITS:
        lo, hi = numeric_engine._pi_mantissas(s)
        with mpmath.workprec(2 * s):
            ref = _mpf_fraction(+mpmath.pi) * 2**s
        assert lo <= ref, s
        assert ref <= hi, s


def test_pi_bracket_is_tight():
    """At every scale s, _pi_mantissas(s) is (floor(pi 2^s), floor(pi 2^s) + 1),
    so each bound is the nearest on its side and a row reads the same pi
    whichever call made it: at every s from 96 to 1,200 and at a stride of 37
    up to 4,127, against mpmath's pi to 4,200 bits.  Its floors at these
    scales are pi's own: its bits from 4,128 to its last 8 are neither all 0
    nor all 1, so its error, under its last bit, moves no floor."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(4200):
        ref = +mpmath.pi
    man, shift = int(ref.man), -int(ref.exp)
    ones = (1 << (shift - 4127 - 8)) - 1
    assert 0 < (man >> 8) & ones < ones
    for s in [*range(96, 1201), *range(1204, 4128, 37)]:
        floor = man >> (shift - s)
        assert numeric_engine._pi_mantissas(s) == (floor, floor + 1), s


def test_pi_power_consistency(ctx128):
    pi_sq = ctx128.pi() * ctx128.pi()
    cached = ctx128.pi_power(2)
    assert contains(cached, PI_100_DIGITS**2) and contains(pi_sq, PI_100_DIGITS**2)
    inv = ctx128.inv_pi_squared()
    assert contains(inv, 1 / PI_100_DIGITS**2)


@given(rationals, rationals)
@settings(max_examples=150)
def test_containment_add_sub_mul(a, b):
    ctx = PrecisionContext(80)
    ia, ib = ctx.from_rational(a), ctx.from_rational(b)
    assert contains(ia + ib, a + b)
    assert contains(ia - ib, a - b)
    assert contains(ia * ib, a * b)
    assert contains(ia.mul_ratio(b.numerator, b.denominator), a * b)


# "nonnegative" may start at 0, so with "positive" it meets the product's
# two-product path at both kinds of lower bound
SIGN_CLASSES = ("positive", "nonnegative", "negative", "straddling", "zero-touching")


@st.composite
def mantissa_pairs(draw, scale: int, sign_class: str):
    """Bounds (lo_m, hi_m) of one sign class, up to 2^8 in magnitude."""
    magnitude = st.integers(min_value=0, max_value=1 << (scale + 8))
    x, y = draw(magnitude), draw(magnitude)
    if sign_class == "positive":
        return 1 + x, 1 + x + y
    if sign_class == "nonnegative":
        return draw(st.sampled_from([0, x])), x + y
    if sign_class == "negative":
        return -1 - x - y, -1 - x
    if sign_class == "straddling":
        return -1 - x, 1 + y
    return draw(st.sampled_from([(0, y), (-y, 0)]))


@pytest.mark.parametrize("bits", [128, 1024])
@pytest.mark.parametrize("left_class", SIGN_CLASSES)
@pytest.mark.parametrize("right_class", SIGN_CLASSES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_mul_bounds_are_floor_of_min_and_ceiling_of_max(bits, left_class, right_class, data):
    """Each bound of a product is the outward rounding of the extreme
    endpoint product, to the unit."""
    ctx = PrecisionContext(bits)
    left = data.draw(mantissa_pairs(ctx.scale, left_class))
    right = data.draw(mantissa_pairs(ctx.scale, right_class))
    assert_mul_bounds(ctx, left, right)


def assert_mul_bounds(ctx: PrecisionContext, left, right):
    unit = 1 << ctx.scale
    product = CertifiedReal(ctx, *left) * CertifiedReal(ctx, *right)
    corners = [x * y for x in left for y in right]
    assert product.lo_m == min(corners) // unit
    assert product.hi_m == -(-max(corners) // unit)


@pytest.mark.parametrize("bits", [128, 1024])
def test_mul_bounds_on_every_interval_of_a_grid(bits):
    """All pairs of intervals with bounds on a 7-point grid: every sign
    class, zero-touching ends and point intervals, with distinct products."""
    ctx = PrecisionContext(bits)
    unit = 1 << ctx.scale
    grid = [i * unit + 7 * i * i for i in range(-3, 4)]
    intervals = [(lo, hi) for lo in grid for hi in grid if lo <= hi]
    for left in intervals:
        for right in intervals:
            assert_mul_bounds(ctx, left, right)


@given(rationals, nonzero)
@settings(max_examples=150)
def test_containment_div(a, b):
    ctx = PrecisionContext(80)
    assert contains(quotient(ctx.from_rational(a), ctx.from_rational(b)), a / b)


@given(rationals, rationals, rationals)
@settings(max_examples=100)
def test_containment_composed(a, b, c):
    ctx = PrecisionContext(96)
    x = ctx.from_rational(a) * ctx.from_rational(b) - ctx.from_rational(c)
    assert contains(x * x, (a * b - c) ** 2)


@given(rationals, rationals, rationals)
@settings(max_examples=100)
def test_monotone_refinement(a, b, c):
    def build(ctx: PrecisionContext) -> CertifiedReal:
        x = ctx.from_rational(a) * ctx.from_rational(b) + ctx.from_rational(c)
        return x * x * ctx.pi()

    coarse = build(PrecisionContext(64))
    fine = build(PrecisionContext(128))
    assert lo_of(coarse) <= lo_of(fine) and hi_of(fine) <= hi_of(coarse)


def test_widened(ctx128):
    base = ctx128.from_rational(1)
    grown = widened(base, Fraction(1, 4))
    assert lo_of(grown) <= Fraction(3, 4) and hi_of(grown) >= Fraction(5, 4)
    with pytest.raises(ValueError):
        widened(base, -1)


def test_structural_equality(ctx128):
    assert ctx128.from_rational(Fraction(3, 8)) == ctx128.from_rational(Fraction(3, 8))
    assert ctx128.from_rational(1) != CertifiedReal(ctx128, 0, 0)
    assert (ctx128.from_rational(1) == 1) is False
    third = ctx128.from_rational(Fraction(1, 3))
    assert third.mul_ratio(-3, -4) == third.mul_ratio(3, 4)
