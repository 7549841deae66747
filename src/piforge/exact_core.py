"""Exact unbounded integer and rational arithmetic helpers.

The substrate for all identity checking is Python's built-in ``int``
(unbounded, exact) together with ``fractions.Fraction``, which keeps every
value in canonical reduced form: ``gcd(|numerator|, denominator) == 1``,
``denominator >= 1``, and zero is ``0/1``.  Canonical form is enforced at
construction, so exact equality is a plain structural comparison.  Division
by zero raises ``ZeroDivisionError`` -- a reported error, never a crash.

This module adds the combinatorial helpers the verifier calls densely
(factorials up to roughly ``(2k+5)!`` and binomial coefficients), memoized
up to a configurable input cap in plain dicts.  All returned values are
immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "ExactInt",
    "ExactRational",
    "binomial",
    "factorial",
    "is_canonical",
    "memo_cap",
    "set_memo_cap",
]

# Aliases documenting the mapping from the abstract exact types onto the
# concrete Python ones; used in annotations throughout the package.
ExactInt = int
ExactRational = Fraction

DEFAULT_MEMO_CAP = 4096

_memo_cap = DEFAULT_MEMO_CAP
_fact_memo: dict[int, int] = {}
_binom_memo: dict[tuple[int, int], int] = {}


def memo_cap() -> int:
    """Current largest input value that gets memoized."""
    return _memo_cap


def set_memo_cap(cap: int) -> int:
    """Set the memoization cap; returns the previous cap.

    Shrinking the cap drops entries above it so the tables never hold
    values that a later call could not have produced.
    """
    global _memo_cap
    if cap < 0:
        raise ValueError("memo cap must be >= 0")
    previous = _memo_cap
    _memo_cap = cap
    if cap < previous:
        for n in [n for n in _fact_memo if n > cap]:
            del _fact_memo[n]
        for key in [key for key in _binom_memo if key[0] > cap]:
            del _binom_memo[key]
    return previous


def factorial(n: int) -> ExactInt:
    """n! as an exact integer; memoized for n up to the cap."""
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    if n <= _memo_cap:
        value = _fact_memo.get(n)
        if value is None:
            value = math.factorial(n)
            _fact_memo[n] = value
        return value
    return math.factorial(n)


def binomial(n: int, k: int) -> ExactInt:
    """C(n, k) exactly, requiring 0 <= k <= n."""
    if k < 0 or n < 0:
        raise ValueError(f"binomial({n}, {k}) with negative argument")
    if k > n:
        raise ValueError(f"binomial({n}, {k}) requires k <= n")
    if n <= _memo_cap:
        key = (n, k)
        value = _binom_memo.get(key)
        if value is None:
            value = math.comb(n, k)
            _binom_memo[key] = value
        return value
    return math.comb(n, k)


def is_canonical(q: Fraction) -> bool:
    """True iff q is in lowest terms with a positive denominator."""
    return q.denominator >= 1 and math.gcd(abs(q.numerator), q.denominator) == 1
