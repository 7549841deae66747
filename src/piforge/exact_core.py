"""A no-op ``set_memo_cap``: n! comes from ``math.factorial``, and nothing
here memoises.  No CLI run loads this module.  It stays only for
``fresh_process_state`` in perfbench/layers.py and goes with that call
(ROADMAP item 1).
"""

__all__ = ["set_memo_cap"]


def set_memo_cap(cap: int) -> int:
    """Return ``cap``: there is no memo to cap."""
    return cap
