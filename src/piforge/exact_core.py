"""Exact unbounded integer and rational arithmetic helpers.

The substrate for all identity checking is Python's built-in ``int``
(unbounded, exact) together with ``fractions.Fraction``, which keeps every
value in canonical reduced form: ``gcd(|numerator|, denominator) == 1``,
``denominator >= 1``, and zero is ``0/1``.  Canonical form is enforced at
construction, so exact equality is a plain structural comparison.  Division
by zero raises ``ZeroDivisionError`` -- a reported error, never a crash.

This module adds memoized factorials (up to roughly ``(2k+2s+1)!`` for the
verifier and ``(2k+5)!`` for the prefactors), kept in a plain dict up to a
configurable input cap.  All returned values are immutable.
"""

from __future__ import annotations

import math

__all__ = [
    "factorial",
    "memo_cap",
    "set_memo_cap",
]

DEFAULT_MEMO_CAP = 4096

_memo_cap = DEFAULT_MEMO_CAP
_fact_memo: dict[int, int] = {}


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
    return previous


def factorial(n: int) -> int:
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
