from __future__ import annotations

from piforge.exact_core import set_memo_cap


def test_memo_cap_roundtrip():
    """The benchmark resets process state with ``set_memo_cap(set_memo_cap(0))``;
    with no memo left, each call hands its cap straight back."""
    assert set_memo_cap(set_memo_cap(0)) == 0
    assert set_memo_cap(10) == 10
    assert set_memo_cap(4096) == 4096
