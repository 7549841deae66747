"""Arbitrary-precision interval arithmetic with an independent pi.

Values are enclosures ``[lo, hi]`` whose bounds are dyadic numbers
``m / 2**scale`` at the fixed scale of a :class:`PrecisionContext`
(``precision_bits + GUARD_BITS`` fractional bits, unbounded integer part;
the ``GUARD_BITS = 32`` extra bits absorb per-operation rounding).
Every operation rounds outward -- lower bounds toward -inf, upper bounds
toward +inf -- so the true value of any expression is guaranteed to stay
inside the computed interval.  Addition and subtraction are exact at a
common scale; multiplication rounds each bound by at most one unit in the
last place, and forms only the two end products when neither operand's
lower bound is negative, all four otherwise.

Because the dyadic grids nest as the scale grows, doubling the precision
never widens a result computed over the same expression DAG.  An enclosure
is read as its two integer mantissas ``lo_m``, ``hi_m`` and ``ctx.scale``;
only ``from_rational`` takes a ``Fraction``, and it loads ``fractions`` when
called.

``pi`` comes from the Machin relation 16*arctan(1/5) - 4*arctan(1/239),
evaluated by integer fixed-point summation of the alternating arctan
series with explicit bookkeeping of every floor-division error, so the
returned enclosure is rigorous without reference to any series under
study elsewhere in this package.  Its powers are the bracket's bounds
raised to the power, which is outward because pi > 0.  Nothing is cached:
a command asks once for the power it compares against, and a gupta row, on
its work context, for what it reads: 1/pi^2 per Horner evaluation where
k > 0 (``inv_pi_squared``), and on the tail path pi^p and, where k > 0,
pi^2 for its heads.  So a walked row takes no Machin run at k = 0 and one
at k > 0, a tail row one and three, four where the tail leaves it to the walk.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = [
    "CertifiedReal",
    "GUARD_BITS",
    "PrecisionContext",
]


GUARD_BITS = 32
_PI_GUARD = 48  # Machin work bits past the scale; sound with any number


def _ceil_div(a: int, b: int) -> int:
    # b > 0; Python's // already floors, ceil comes from negation.
    return -((-a) // b)


class PrecisionContext(namedtuple("PrecisionContext", "precision_bits")):
    """Shared working precision for interval values.

    ``precision_bits`` is the guaranteed resolution of produced constants
    (e.g. ``pi`` has width <= 2**-precision_bits); ``GUARD_BITS`` of extra
    headroom absorb per-operation rounding.
    """

    __slots__ = ()

    def __new__(cls, precision_bits: int = 128) -> PrecisionContext:
        if precision_bits < 64:
            raise ValueError("precision_bits must be >= 64")
        return super().__new__(cls, precision_bits)

    @property
    def scale(self) -> int:
        return self.precision_bits + GUARD_BITS

    # -- value factories ---------------------------------------------------

    def from_rational(self, value: Fraction | int) -> "CertifiedReal":
        """Tightest enclosure of an exact rational: each bound within 1 ulp."""
        from fractions import Fraction

        q = Fraction(value)
        shifted, den = q.numerator << self.scale, q.denominator
        return CertifiedReal(self, shifted // den, _ceil_div(shifted, den))

    def pi(self) -> "CertifiedReal":
        """Enclosure of pi of width <= 2**-precision_bits (Machin formula)."""
        return self.pi_power(1)

    def pi_power(self, p: int) -> "CertifiedReal":
        lo, hi = _pi_mantissas(self.scale)
        shift = self.scale * (p - 1)
        return CertifiedReal(self, lo**p >> shift, -((-(hi**p)) >> shift))

    def inv_pi_squared(self) -> "CertifiedReal":
        pi2 = self.pi_power(2)
        one_squared = 1 << (2 * self.scale)
        return CertifiedReal(self, one_squared // pi2.hi_m, _ceil_div(one_squared, pi2.lo_m))


class CertifiedReal:
    """An interval ``[lo_m / 2**scale, hi_m / 2**scale]`` of dyadic bounds,
    ``scale = ctx.scale``, guaranteed to contain the true value."""

    __slots__ = ("ctx", "lo_m", "hi_m")

    def __init__(self, ctx: PrecisionContext, lo_m: int, hi_m: int):
        if lo_m > hi_m:
            raise ValueError("inverted interval bounds")
        self.ctx = ctx
        self.lo_m = lo_m
        self.hi_m = hi_m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CertifiedReal):
            return NotImplemented
        return (
            self.ctx.scale == other.ctx.scale
            and self.lo_m == other.lo_m
            and self.hi_m == other.hi_m
        )

    def __repr__(self) -> str:
        # hexadecimal: int-to-decimal conversion stops at 4,300 digits
        return f"CertifiedReal(lo_m={self.lo_m:#x}, hi_m={self.hi_m:#x}, scale={self.ctx.scale})"

    def _check(self, other: "CertifiedReal") -> None:
        if self.ctx.scale != other.ctx.scale:
            raise ValueError("mixed precision contexts")

    # -- arithmetic (outward rounding) ----------------------------------------

    def __add__(self, other: "CertifiedReal") -> "CertifiedReal":
        self._check(other)
        return CertifiedReal(self.ctx, self.lo_m + other.lo_m, self.hi_m + other.hi_m)

    def __sub__(self, other: "CertifiedReal") -> "CertifiedReal":
        self._check(other)
        return CertifiedReal(self.ctx, self.lo_m - other.hi_m, self.hi_m - other.lo_m)

    def __mul__(self, other: "CertifiedReal") -> "CertifiedReal":
        self._check(other)
        a, b, c, d = self.lo_m, self.hi_m, other.lo_m, other.hi_m
        if a >= 0 and c >= 0:  # then a*c and b*d are the least and greatest
            lo, hi = a * c, b * d
        else:
            products = (a * c, a * d, b * c, b * d)
            lo, hi = min(products), max(products)
        scale = self.ctx.scale
        # right-shifts round toward -inf, so ceil comes from negation
        return CertifiedReal(self.ctx, lo >> scale, -((-hi) >> scale))

    def mul_ratio(self, num: int, den: int) -> "CertifiedReal":
        """Multiply by the exact rational num/den with one outward rounding
        per bound (tighter and cheaper than from_rational + mul)."""
        if den < 0:
            num, den = -num, -den
        if den == 0:
            raise ZeroDivisionError("mul_ratio by zero denominator")
        if num >= 0:
            return CertifiedReal(
                self.ctx, (self.lo_m * num) // den, _ceil_div(self.hi_m * num, den)
            )
        return CertifiedReal(
            self.ctx, (self.hi_m * num) // den, _ceil_div(self.lo_m * num, den)
        )

    def rounded_to(self, ctx: PrecisionContext) -> "CertifiedReal":
        """The same enclosure rounded outward onto a context of no larger
        scale."""
        shift = self.ctx.scale - ctx.scale
        if shift < 0:
            raise ValueError("rounded_to cannot refine the scale")
        return CertifiedReal(ctx, self.lo_m >> shift, -((-self.hi_m) >> shift))


# -- independent pi ----------------------------------------------------------


def _arctan_inv_mantissas(q: int, work: int) -> tuple[int, int]:
    """Integer bracket of arctan(1/q) * 2**work via the alternating Taylor
    series.  Each power/term floor-division loses at most a bounded number
    of units; the returned slack covers every loss plus the truncated tail.
    """
    q2 = q * q
    power = (1 << work) // q  # floor(2**work / q**(2i+1)), error <= 2 ulp
    acc = 0
    i = 0
    sign = 1
    while power:
        acc += sign * (power // (2 * i + 1))
        power //= q2
        sign = -sign
        i += 1
    # Each term is a nested floor, under a unit off, and the tail under a
    # unit: the loss is below i + 1 units, so a narrower slack down to that
    # passes every test too.  Budget shrinks stay proof-only.
    slack = 3 * i + 4
    return acc - slack, acc + slack


def _pi_mantissas(scale: int) -> tuple[int, int]:
    work = scale + _PI_GUARD
    lo5, hi5 = _arctan_inv_mantissas(5, work)
    lo239, hi239 = _arctan_inv_mantissas(239, work)
    lo = 16 * lo5 - 4 * hi239
    hi = 16 * hi5 - 4 * lo239
    shift = work - scale
    return lo >> shift, -((-hi) >> shift)
