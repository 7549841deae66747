from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from piforge import special_numbers
from piforge.special_numbers import (
    TableDepthError,
    TableStore,
    bernoulli_numbers,
    euler_numbers,
    number_tables,
)

EULER_LIST = {2: -1, 4: 5, 6: -61, 8: 1385, 10: -50521, 12: 2702765}
BERNOULLI_LIST = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [i for i, flag in enumerate(sieve) if flag]


def brute_force_euler(K: int) -> list[int]:
    """Independent re-run of the defining recurrence (test oracle):
    sum_{j=0}^{n} C(2n, 2j) E_{2j} = 0 for n >= 1, E_0 = 1."""
    values = [1]
    for n in range(1, K + 1):
        values.append(-sum(comb(2 * n, 2 * j) * values[j] for j in range(n)))
    return values


def reference_bernoulli(K: int) -> list[Fraction]:
    """B_0, B_2, ..., B_{2K} from the defining recurrence (test oracle):
    sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1, B_0 = 1, run over even m
    with the single odd term B_1 = -1/2 folded in."""
    values = [Fraction(1)]
    for m in range(1, K + 1):
        n = 2 * m
        acc = Fraction(n + 1, -2)  # C(n+1, 1) * B_1
        for j in range(m):
            acc += comb(n + 1, 2 * j) * values[j]
        values.append(-acc / (n + 1))
    return values


@pytest.mark.parametrize("K", [0, 1, 2, 256])
def test_zigzag_tables_match_recurrences(K):
    euler_ref, bern_ref = brute_force_euler(K + 3), reference_bernoulli(K + 3)
    assert list(euler_numbers(K).values) == euler_ref[: K + 1]
    assert list(bernoulli_numbers(K).values) == bern_ref[: K + 1]
    # one zigzag run serves both tables, whichever of them needs the longer run
    for k_euler, k_bern in ((K, K + 3), (K + 3, K)):
        euler, bern = number_tables(k_euler, k_bern)
        assert list(euler.values) == euler_ref[: k_euler + 1]
        assert list(bern.values) == bern_ref[: k_bern + 1]


def test_published_number_lists(euler_table, bernoulli_table):
    for index, expected in EULER_LIST.items():
        assert euler_table.values[index // 2] == expected
    assert euler_table.values[0] == 1
    assert bernoulli_table.values[0] == 1
    assert bernoulli_table.b1 == Fraction(-1, 2)
    for index, expected in BERNOULLI_LIST.items():
        assert bernoulli_table.values[index // 2] == expected


def test_one_step_past_published_lists(euler_table, bernoulli_table):
    assert brute_force_euler(7)[7] == -199360981
    assert euler_table.values[7] == -199360981
    assert bernoulli_table.values[7] == Fraction(7, 6)


def test_trivial_seeds():
    assert euler_numbers(0).values == (1,)
    assert bernoulli_numbers(0).values == (Fraction(1),)


def test_sign_laws_and_oddness():
    euler = euler_numbers(20)
    for k in range(1, 21):
        entry = euler.values[k]
        assert (entry < 0) == (k % 2 == 1)  # sign(E_{2k}) = (-1)^k
        assert entry % 2 == 1  # all entries are odd integers
    bern = bernoulli_numbers(20)
    for k in range(1, 21):
        assert (bern.values[k] > 0) == (k % 2 == 1)  # sign = (-1)^(k+1)


def test_von_staudt_clausen():
    bern = bernoulli_numbers(40)
    primes = primes_up_to(2 * 40 + 1)
    for k in range(1, 41):
        correction = sum(
            (Fraction(1, p) for p in primes if (2 * k) % (p - 1) == 0), Fraction(0)
        )
        assert (bern.values[k] + correction).denominator == 1
        # the denominator is exactly the product of those primes
        expected_den = 1
        for p in primes:
            if (2 * k) % (p - 1) == 0:
                expected_den *= p
        assert bern.values[k].denominator == expected_den


def test_store_caps_depth(monkeypatch):
    def build(*args):
        raise AssertionError("a table beyond the cap was built")

    monkeypatch.setattr(special_numbers, "number_tables", build)
    store = TableStore()
    with pytest.raises(TableDepthError, match="cap is 512"):
        store.euler(257)
    with pytest.raises(TableDepthError, match="cap is 512"):
        store.bernoulli(300)
