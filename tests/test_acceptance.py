"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines alongside the pytest verdicts.
"""

from __future__ import annotations

import io
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

from piforge.cli import main as cli_main
from piforge.exact_verifier import verify_grid
from piforge.gupta_series import partial_sum, prefactor, tail_bound
from piforge.numeric_engine import PrecisionContext
from piforge.prior_series import (
    alzer_H_partials,
    alzer_h_partials,
    alzer_koumandos_partials,
    kolbig_partials,
)
from piforge.special_numbers import bernoulli_numbers, euler_numbers

from oracles import (
    CLASSICAL_COEFF,
    beta_partial,
    beta_pi_coeff,
    bernoulli_fractions,
    contains,
    hi_of,
    lo_of,
    mag_of,
    mid_of,
    pi_multiple_interval,
    quotient,
    residual_numeric,
    widened,
    zeta_partial,
    zeta_pi_coeff,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def run_cli(argv, env):
    import os

    old = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = cli_main(argv)
    finally:
        for key, value in old.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, out.getvalue()


def test_criterion_1_exact_identity_grid():
    with criterion(1, "exact identity grid p=1..6, k<=64"):
        started = time.perf_counter()
        checks = verify_grid(range(1, 7), 64)
        elapsed = time.perf_counter() - started
        assert len(checks) == 390
        for check in checks:
            assert check.ratio == (1, 1), (check.p, check.k, check.ratio)
            assert check.holds
        assert elapsed < 30.0, f"grid took {elapsed:.1f}s"


def test_criterion_2_paper_prefactor_constants():
    with criterion(2, "printed prefactor constants"):
        assert prefactor(3, 2) == 20480
        assert prefactor(3, 3) == Fraction(371589120, 255)
        assert prefactor(3, 4) == Fraction(4954521600, 31)
        p5_denominators = [25, 273, 2049, 13057, 75777]
        for k, den in enumerate(p5_denominators):
            assert (1 << (2 * k + 2)) * (2 * k * k + 9 * k + 6) + 1 == den
            from math import factorial

            assert prefactor(5, k) == Fraction(
                (1 << (2 * k + 6)) * factorial(2 * k + 5), den
            )
        assert [prefactor(2, k) for k in range(5)] == [6, 60, 1680, 90720, 7983360]
        assert [prefactor(4, k) for k in range(5)] == [
            90,
            1260,
            45360,
            2993760,
            311351040,
        ]
        assert [prefactor(6, k) for k in range(5)] == [
            945,
            14175,
            534600,
            36486450,
            3891888000,
        ]


def test_criterion_3_number_tables():
    with criterion(3, "Euler/Bernoulli tables + von Staudt-Clausen k<=128"):
        euler = euler_numbers(6)
        assert [euler.values[k] for k in range(1, 7)] == [
            -1,
            5,
            -61,
            1385,
            -50521,
            2702765,
        ]
        # B_1 is in no table: the CLI prints it between B_0 and B_2
        assert run_cli(["numbers", "--kind", "bernoulli", "--max-index", "2"], {}) == (
            0, "B_0 = 1\nB_1 = -1/2\nB_2 = 1/6\n"
        )
        bern = bernoulli_fractions(bernoulli_numbers(128))
        assert bern[1:7] == [
            Fraction(1, 6),
            Fraction(-1, 30),
            Fraction(1, 42),
            Fraction(-1, 30),
            Fraction(5, 66),
            Fraction(-691, 2730),
        ]
        # independent sieve for the von Staudt-Clausen test
        limit = 2 * 128 + 1
        sieve = bytearray([1]) * (limit + 1)
        sieve[:2] = b"\x00\x00"
        for candidate in range(2, int(limit**0.5) + 1):
            if sieve[candidate]:
                step = candidate
                sieve[candidate * candidate :: step] = b"\x00" * len(
                    sieve[candidate * candidate :: step]
                )
        primes = [i for i, flag in enumerate(sieve) if flag]
        for k in range(1, 129):
            correction = sum(
                (Fraction(1, p) for p in primes if (2 * k) % (p - 1) == 0),
                Fraction(0),
            )
            assert (bern[k] + correction).denominator == 1, k


def test_criterion_4_closed_form_coefficients():
    with criterion(4, "beta/zeta closed-form coefficients"):
        euler = euler_numbers(5)
        expected_beta = [
            Fraction(1, 4),
            Fraction(1, 32),
            Fraction(5, 1536),
            Fraction(61, 184320),
            Fraction(1385, 41287680),
            Fraction(50521, 14863564800),
        ]
        for k, coeff in enumerate(expected_beta):
            value = beta_pi_coeff(k, euler)
            assert value.coeff == coeff and value.power == 2 * k + 1
        bern = bernoulli_numbers(7)
        expected_zeta = [
            Fraction(1, 6),
            Fraction(1, 90),
            Fraction(1, 945),
            Fraction(1, 9450),
            Fraction(1, 93555),
            Fraction(691, 638512875),
            Fraction(2, 18243225),
        ]
        for k, coeff in enumerate(expected_zeta, start=1):
            value = zeta_pi_coeff(k, bern)
            assert value.coeff == coeff and value.power == 2 * k


def test_criterion_5_numeric_convergence():
    with criterion(5, "residuals track analytic tails at N=1e3, 1e4"):
        ctx = PrecisionContext(128)
        for p in range(1, 7):
            target = ctx.pi_power(p)
            for k in range(3):
                magnitudes = []
                for N in (10**3, 10**4):
                    value = partial_sum(p, k, N, ctx)
                    tail = tail_bound(p, k, N)
                    assert contains(widened(value, tail), target), (p, k, N)
                    residual = quotient(value, target) - ctx.from_rational(1)
                    relative_tail = tail / lo_of(target)
                    assert mag_of(residual) <= 4 * relative_tail, (p, k, N)
                    assert mag_of(residual) >= relative_tail / 4, (p, k, N)
                    magnitudes.append(mag_of(residual))
                assert magnitudes[1] < magnitudes[0], (p, k)
        # closed-form partial sums enclose their targets as well
        euler = euler_numbers(6)
        bern = bernoulli_numbers(6)
        for k in range(0, 7):
            closed = pi_multiple_interval(beta_pi_coeff(k, euler), ctx)
            assert contains(beta_partial(k, 10**4, ctx).enclosure, closed)
        for k in range(1, 7):
            closed = pi_multiple_interval(zeta_pi_coeff(k, bern), ctx)
            assert contains(zeta_partial(k, 10**4, ctx).enclosure, closed)
        # the oracle's residual is the same computation
        manual = quotient(partial_sum(2, 1, 1000, ctx), ctx.pi_power(2)) - ctx.from_rational(1)
        assert residual_numeric(2, 1, 1000, ctx) == manual


def test_criterion_6_k0_collapse():
    with criterion(6, "k=0 collapse matches classical series exactly"):
        ctx = PrecisionContext(128)
        for p in range(1, 7):
            coeff = CLASSICAL_COEFF[p]
            assert prefactor(p, 0) == coeff, p
            for N in (1, 10, 10**3):
                # the oracle sums term by term at the context scale, with
                # no guard bits, and is scaled by the classical coefficient
                if p % 2 == 1:
                    oracle = beta_partial((p - 1) // 2, N, ctx).partial
                else:
                    oracle = zeta_partial(p // 2, N, ctx).partial
                classical = oracle.mul_ratio(coeff.numerator, coeff.denominator)
                family = partial_sum(p, 0, N, ctx)
                overlap = lo_of(family) <= hi_of(classical) and lo_of(classical) <= hi_of(family)
                assert overlap, (p, N)


def test_criterion_7_prior_series():
    with criterion(7, "prior-work series converge; Kolbig K=1 exact"):
        ctx = PrecisionContext(192)
        [value] = kolbig_partials([1], ctx)
        assert lo_of(value) == hi_of(value) == 1
        pi2 = ctx.pi_power(2)
        for partial in (alzer_h_partials, alzer_H_partials, kolbig_partials):
            residuals = [
                abs(mid_of(value) - mid_of(pi2))
                for value in partial([10**2, 10**3, 10**4], ctx)
            ]
            assert residuals[0] > residuals[1] > residuals[2], partial.__name__
        deep = PrecisionContext(16500)
        pi_deep = deep.pi()
        for mu in (Fraction(1), Fraction(1, 2)):
            residuals = [
                abs(mid_of(value) - mid_of(pi_deep))
                for value in alzer_koumandos_partials(mu, [10**2 + 1, 10**3 + 1, 10**4 + 1], deep)
            ]
            assert residuals[0] > residuals[1] > residuals[2] > 0, mu


def test_criterion_8_worker_determinism(tmp_path):
    with criterion(8, "byte-identical reports with 1 and 8 workers"):
        env = {"PIFORGE_CACHE_DIR": str(tmp_path / "cache")}
        # criterion 1 report
        verify_args = ["verify", "--powers", "1-6", "--k-max", "64", "--format", "csv"]
        one = run_cli(verify_args + ["--workers", "1"], env)
        eight = run_cli(verify_args + ["--workers", "8"], env)
        assert one[0] == eight[0] == 0
        assert one[1] == eight[1]
        # criterion 5 report: the same residual survey through the CLI
        for p in range(1, 7):
            compare_args = [
                "compare",
                "--target",
                f"pi{p}",
                "--series",
                f"gupta:p={p},k=0,gupta:p={p},k=1,gupta:p={p},k=2",
                "--terms",
                "1000,10000",
                "--prec",
                "128",
                "--format",
                "csv",
            ]
            one = run_cli(compare_args + ["--workers", "1"], env)
            eight = run_cli(compare_args + ["--workers", "8"], env)
            assert one[0] == eight[0] == 0
            assert one[1] == eight[1], f"pi^{p} report differs across worker counts"
