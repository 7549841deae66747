"""Memoized factorials for the exact layer.

piforge's exact arithmetic is Python's built-in ``int`` and
``fractions.Fraction``, used directly.  This module only memoizes
factorials (the n! of each prefactor, n = 2k + 2 floor(p/2) + 1, and those
of the series' coefficients) in a plain dict, up to a configurable input cap.
"""

from __future__ import annotations

import math

__all__ = ["factorial", "set_memo_cap"]

DEFAULT_MEMO_CAP = 4096

_memo_cap = DEFAULT_MEMO_CAP
_fact_memo: dict[int, int] = {}


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
