from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from piforge import exact_verifier
from piforge.exact_verifier import reduce_exact, required_table_k, verify_grid
from piforge.gupta_series import prefactor, tail_bound
from piforge.numeric_engine import PrecisionContext
from piforge.special_numbers import (
    BernoulliTable,
    EulerTable,
    TableDepthError,
    bernoulli_numbers,
    euler_numbers,
)

from oracles import (
    contains,
    oracle_ratio,
    pi_multiple_interval,
    reduction_summands,
    residual_numeric,
    widened,
    zeta_pi_coeff,
)


def poisoned_tables(euler: EulerTable, bern: BernoulliTable, K: int):
    """Copies of E_0..E_2K and B_0..B_2K with E_6 off by 2 and B_2 = 1/7."""
    e = list(euler.values[: K + 1])
    e[3] += 2
    b = list(bern.values[: K + 1])
    b[1] = Fraction(1, 7)
    return EulerTable(tuple(e)), BernoulliTable(tuple(b))


@pytest.fixture(scope="module")
def cap_tables():
    """Both tables to the index-512 cap of a default TableStore."""
    return euler_numbers(256), bernoulli_numbers(256)


def exact_power_sum(q: int, N: int) -> Fraction:
    """sum_{n<=N} 1/n^q with a running-lcm accumulator (test oracle)."""
    num, den = 0, 1
    for n in range(1, N + 1):
        m = n**q
        g = gcd(den, m)
        mult = m // g
        den *= mult
        num = num * mult + den // m
    return Fraction(num, den)


def test_required_depth():
    assert required_table_k(1, 4) == 4
    assert required_table_k(5, 4) == 6
    assert required_table_k(6, 64) == 67
    with pytest.raises(ValueError):
        required_table_k(7, 0)


def test_reduce_k1_p1_matches_hand_reduction(euler_table):
    summands = reduction_summands(1, 1, euler=euler_table)
    assert summands == [Fraction(1, 24), Fraction(-1, 32)]
    check = reduce_exact(1, 1, euler=euler_table)
    assert check.ratio == 96 * (Fraction(1, 24) - Fraction(1, 32)) == 1
    assert check.holds


def test_reduce_trivial_and_deep(euler_table, bernoulli_table):
    check = reduce_exact(1, 0, euler=euler_table)
    assert check.ratio == 1 and check.holds
    euler = euler_numbers(10)
    check = reduce_exact(5, 4, euler=euler)
    assert check.holds
    check = reduce_exact(6, 3, bern=bernoulli_table)
    assert check.holds


def test_integer_ratio_matches_fraction_oracle(cap_tables):
    euler, bern = cap_tables
    for p in range(1, 7):
        for k in range(65):
            check = reduce_exact(p, k, euler, bern)
            assert check.ratio == oracle_ratio(p, k, euler, bern) == 1, (p, k)
            assert check.holds


def test_row_is_scaled_binomials():
    for n, row in zip(range(1, 514, 2), exact_verifier._rows()):
        assert row == [comb(n, i) << (n - i) for i in range(n + 1)]


def test_cold_row_chain_to_table_cap(cap_tables):
    euler, bern = cap_tables
    assert reduce_exact(6, 253, bern=bern).holds
    assert reduce_exact(1, 256, euler=euler).holds


# (p, k) pairs up to the table cap, in random order
cases = st.integers(1, 6).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(0, 256 - required_table_k(p, 0)))
)


@settings(max_examples=25, deadline=None)
@given(st.lists(cases, min_size=1, max_size=4))
@example([(1, 256), (6, 253), (1, 0), (6, 252)])
def test_integer_ratio_matches_oracle_to_table_cap(cap_tables, pairs):
    euler, bern = cap_tables
    for p, k in pairs:
        check = reduce_exact(p, k, euler, bern)
        assert check.ratio == oracle_ratio(p, k, euler, bern) == 1
        assert check.holds


def touched_by_poison(p: int, k: int) -> bool:
    """Whether (p, k) reads E_6 or B_2, the entries poisoned_tables changes."""
    s = required_table_k(p, k) - k
    # odd p reads E_2s..E_2(k+s); p = 2 is the only family reading B_2
    return s <= 3 <= k + s if p % 2 == 1 else s == 1


def test_poisoned_tables_fail_with_oracle_ratio(cap_tables):
    euler, bern = poisoned_tables(*cap_tables, 40)
    failed = 0
    for p in range(1, 7):
        for k in range(30):
            check = reduce_exact(p, k, euler, bern)
            assert check.ratio == oracle_ratio(p, k, euler, bern), (p, k)
            assert check.holds == (check.ratio == 1) == (not touched_by_poison(p, k)), (p, k)
            failed += not check.holds
    assert failed == 114


def test_grid_under_poisoned_tables(cap_tables, monkeypatch):
    # verify_grid builds its own tables, so poison them where it gets them;
    # B_2 = 1/7 brings a denominator the true table does not have
    euler, bern = poisoned_tables(*cap_tables, 40)
    monkeypatch.setattr(
        exact_verifier,
        "number_tables",
        lambda ke, kb: (poisoned_tables(*cap_tables, ke)[0], poisoned_tables(*cap_tables, kb)[1]),
    )
    checks = verify_grid(range(1, 7), 29)
    assert [(c.p, c.k) for c in checks] == [(p, k) for p in range(1, 7) for k in range(30)]
    for check in checks:
        p, k = check.p, check.k
        assert check.ratio == oracle_ratio(p, k, euler, bern), (p, k)
        assert check.holds == (check.ratio == 1) == (not touched_by_poison(p, k)), (p, k)
    assert sum(not check.holds for check in checks) == 114


# Power sets whose shared parity sum starts below some family's first term,
# or whose families of one parity leave the grid at different n.
SHARED_SUM_POWERS = [{5}, {3, 5}, {4, 6}, {2, 6}, {1, 6}]


def cell_by_cell(powers, k_max, euler, bern):
    return [reduce_exact(p, k, euler, bern) for p in sorted(powers) for k in range(k_max + 1)]


@pytest.mark.parametrize("powers", SHARED_SUM_POWERS, ids=str)
def test_shared_parity_sum_matches_reduce_exact(cap_tables, powers):
    k_max = 256 - max(required_table_k(p, 0) for p in powers)
    checks = verify_grid(powers, k_max)
    assert checks == cell_by_cell(powers, k_max, *cap_tables)
    assert all(check.holds for check in checks)


@pytest.mark.parametrize("powers", SHARED_SUM_POWERS, ids=str)
def test_shared_parity_sum_under_poisoned_tables(cap_tables, powers, monkeypatch):
    # a parity the powers leave out gets order 0, too shallow to poison and unread
    monkeypatch.setattr(
        exact_verifier,
        "number_tables",
        lambda ke, kb: (
            poisoned_tables(*cap_tables, max(ke, 3))[0],
            poisoned_tables(*cap_tables, max(kb, 3))[1],
        ),
    )
    checks = verify_grid(powers, 29)
    assert checks == cell_by_cell(powers, 29, *poisoned_tables(*cap_tables, 40))
    assert [check.holds for check in checks] == [
        not touched_by_poison(check.p, check.k) for check in checks
    ]


def test_grid_to_table_cap():
    checks = verify_grid(range(1, 7), 253)
    assert len(checks) == 1524
    assert all(check.holds and check.ratio == 1 for check in checks)
    with pytest.raises(TableDepthError, match="512"):
        verify_grid(range(1, 7), 254)


def test_alternating_signs_as_printed(euler_table):
    # k = 3 bracket signs +, -, +, -
    summands = reduction_summands(1, 3, euler=euler_table)
    assert [s > 0 for s in summands] == [True, False, True, False]


def test_small_grid(euler_table, bernoulli_table):
    checks = verify_grid([1], 4)
    assert len(checks) == 5
    assert [(c.p, c.k) for c in checks] == [(1, k) for k in range(5)]
    assert all(c.holds for c in checks)
    assert verify_grid([], 10) == []


def test_grid_order_and_holds():
    checks = verify_grid([2, 1], 2)
    assert [(c.p, c.k) for c in checks] == [
        (1, 0),
        (1, 1),
        (1, 2),
        (2, 0),
        (2, 1),
        (2, 2),
    ]
    assert all(c.holds for c in checks)


def test_table_depth_errors(euler_table, bernoulli_table, monkeypatch):
    with pytest.raises(TableDepthError):
        reduce_exact(1, 40, euler=euler_table)
    with pytest.raises(TableDepthError):
        reduce_exact(2, 40, bern=bernoulli_table)
    with pytest.raises(TableDepthError):
        reduce_exact(1, 1)  # no table supplied at all

    def must_not_build(*orders):
        raise AssertionError("a table was built past the cap")

    # raised before building anything
    monkeypatch.setattr(exact_verifier, "number_tables", must_not_build)
    with pytest.raises(TableDepthError, match="cap"):
        verify_grid([6], 254)


def test_residual_leibniz_bound(ctx128):
    value = residual_numeric(1, 0, 1000, ctx128)
    assert value.mag <= Fraction(4, 2001)


def test_residual_monotone(ctx128):
    small = residual_numeric(4, 2, 1000, ctx128)
    large = residual_numeric(4, 2, 10000, ctx128)
    assert large.mag < small.mag


def test_residual_zeta_scale(ctx128):
    value = residual_numeric(2, 0, 10**5, ctx128)
    # ~6/(pi^2 N) = 6.08e-6
    assert Fraction(3, 10**6) < value.mag < Fraction(9, 10**6)


def test_residual_tracks_tail_estimate(ctx128):
    for p, k, N in ((2, 1, 2000), (3, 2, 1000)):
        residual = residual_numeric(p, k, N, ctx128)
        rel_tail = tail_bound(p, k, N) / ctx128.pi_power(p).lo
        assert residual.mag <= rel_tail
        assert residual.mag >= rel_tail / 4


def test_interchange_soundness_spot_check(ctx128, bernoulli_table):
    """Finite-sum interchange for (p=2, k=1) in exact rationals.

    Each term is A*(w0/n^2 - w1 y / n^4) with y standing for 1/pi^2.
    Summing term-by-term and summing the two power sums separately must
    agree exactly, and each power sum must sit within its predicted tail
    of the closed form it converges to.
    """
    N = 10**4
    w0, w1 = Fraction(1, 6), Fraction(1)
    pref = prefactor(2, 1)
    y = Fraction(9, 89)  # arbitrary exact stand-in for 1/pi^2
    term_side = sum(
        pref * (w0 * Fraction(1, n * n) - w1 * y * Fraction(1, n**4))
        for n in range(1, N + 1)
    )
    s2 = exact_power_sum(2, N)
    s4 = exact_power_sum(4, N)
    reduce_side = pref * (w0 * s2 - w1 * y * s4)
    assert term_side == reduce_side
    # bulk sums approach their closed forms within the integral tails
    zeta2 = pi_multiple_interval(zeta_pi_coeff(1, bernoulli_table), ctx128)
    zeta4 = pi_multiple_interval(zeta_pi_coeff(2, bernoulli_table), ctx128)
    assert contains(widened(ctx128.from_rational(s2), Fraction(1, N)), zeta2)
    assert contains(widened(ctx128.from_rational(s4), Fraction(1, 3 * N**3)), zeta4)
