"""Memoized factorials, which no piforge module calls any more:
``closed_forms`` and ``gupta_series`` take n! from ``math.factorial``, so no
verify, sum or compare run loads this module or its module-level memo dict.
It stays, with the ``piforge.factorial`` export, only because the benchmark's
traced mode calls ``set_memo_cap`` (perfbench/layers.py), and goes with the
benchmark change that drops that call (ROADMAP item 6).
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
