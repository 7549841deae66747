from __future__ import annotations

import csv
import errno
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from piforge import exact_verifier, prior_series, special_numbers
from piforge.cli import main
from piforge.exact_verifier import IdentityCheck
from piforge.report import CSV_HEADER, render_signed
from piforge.series_commands import SERIES, _parse_series

from oracles import oracle_ratio


def run_cli(argv, env=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_numbers_bernoulli_json():
    code, out, _ = run_cli(
        ["numbers", "--kind", "bernoulli", "--max-index", "12", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(out)
    assert ["12", "-691", "2730"] in rows
    assert ["1", "-1", "2"] in rows


def test_numbers_euler_trivial_and_deep():
    code, out, _ = run_cli(["numbers", "--kind", "euler", "--max-index", "0"])
    assert code == 0
    assert out.strip() == "E_0 = 1"
    code, out, _ = run_cli(
        ["numbers", "--kind", "euler", "--max-index", "14", "--format", "csv"]
    )
    assert code == 0
    assert "-199360981" in out
    assert out.splitlines()[0] == "index,numerator,denominator"


def test_numbers_rejects_odd_index():
    code, _, err = run_cli(["numbers", "--kind", "euler", "--max-index", "7"])
    assert code == 2
    assert "even" in err


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("pretty", "B_0 = 1\n"),
        ("csv", "index,numerator,denominator\n0,1,1\n"),
        ("json", '[\n  [\n    "0",\n    "1",\n    "1"\n  ]\n]\n'),
    ],
)
def test_numbers_bernoulli_stops_at_max_index(fmt, expected):
    # B_1 lies beyond a table that stops at index 0
    argv = ["numbers", "--kind", "bernoulli", "--max-index", "0", "--format", fmt]
    assert run_cli(argv)[:2] == (0, expected)


def test_numbers_bernoulli_shows_b1_from_index_2():
    code, out, _ = run_cli(["numbers", "--kind", "bernoulli", "--max-index", "2"])
    assert (code, out) == (0, "B_0 = 1\nB_1 = -1/2\nB_2 = 1/6\n")


def test_huge_powers_range_exits_2_at_once():
    """An out-of-range --powers range is rejected from its endpoints.  Under
    a 512 MB address-space limit, building the range first dies with
    MemoryError and exit 1, which reads as a failed identity."""
    resource = pytest.importorskip("resource")

    def limit_memory():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, hard))

    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-m", "piforge.cli", "verify", "--powers", "1-100000000"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=limit_memory,
        timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "powers must come from 1..6, got '1-100000000'" in result.stderr


@pytest.mark.parametrize("powers", ["6-1", ",", " 6-1 , 3-2 "])
def test_powers_naming_no_power_exits_2(powers):
    """A reversed range is empty on purpose (``1,6-1`` is ``1``), so a list
    of nothing else names no power: that is the fault the message gives,
    not a power out of range."""
    code, out, err = run_cli(["verify", "--powers", powers])
    assert (code, out) == (2, "")
    assert err == f"piforge: error: powers must name at least one power, got {powers!r}\n"
    assert run_cli(["verify", "--powers", f"1,{powers}", "--k-max", "0"])[0] == 0


def test_huge_mu_exits_2_before_it_is_expanded():
    """A mu exponent is bounded before any power of ten is built:
    10^99999999999 would take ages and all memory, and a 5,000,001-digit
    denominator is past the int-to-str limit the series id needs.  Both run
    in one child process under a 512 MB address-space limit and a timeout."""
    resource = pytest.importorskip("resource")

    def limit_memory():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, hard))

    mus = ["1e99999999999", "1e-5000000"]
    code = (
        "import sys\n"
        "from piforge.cli import main\n"
        "for mu in sys.argv[1:]:\n"
        "    code = main(['sum', '--series', 'alzer-koumandos:mu=' + mu, '--terms', '3'])\n"
        "    print(code, file=sys.stderr)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", code, *mus],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=limit_memory,
        timeout=60,
    )
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert lines[1::2] == ["2", "2"]
    for mu, line in zip(mus, lines[::2]):
        assert line == (
            f"piforge: error: series 'alzer-koumandos:mu={mu}' mu needs a "
            "numerator and denominator of at most 4300 digits"
        )


def test_stale_cache_files_are_ignored(tmp_path, monkeypatch):
    # a poisoned Bernoulli table (B_2 = 1/7) and a truncated Euler table
    # where older versions kept their number cache
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "bernoulli.json").write_text(
        json.dumps(
            {
                "format": "piforge-numbers/1",
                "kind": "bernoulli",
                "max_index": 2,
                "values": [[0, "1", "1"], [1, "-1", "2"], [2, "1", "7"]],
            }
        )
    )
    (cache / "euler.json").write_text('{"format": "piforge-numbers/1", "ki')
    monkeypatch.setenv("PIFORGE_CACHE_DIR", str(cache))
    monkeypatch.chdir(tmp_path)
    runs = {
        powers: run_cli(["verify", "--powers", powers, "--k-max", "8", "--format", "csv"])
        for powers in ("1-6", "2,4,6")
    }
    assert {powers: run[0] for powers, run in runs.items()} == {"1-6": 0, "2,4,6": 0}
    for _, out, err in runs.values():
        rows = out.strip().splitlines()[1:]
        assert err == "" and rows and all(row.endswith(",true") for row in rows)
    code, out, _ = run_cli(["numbers", "--kind", "bernoulli", "--max-index", "4"])
    assert code == 0
    assert out.splitlines() == ["B_0 = 1", "B_1 = -1/2", "B_2 = 1/6", "B_4 = -1/30"]
    code, out, _ = run_cli(["numbers", "--kind", "euler", "--max-index", "4"])
    assert code == 0
    assert out.splitlines() == ["E_0 = 1", "E_2 = -1", "E_4 = 5"]


def test_runs_leave_no_cache_directory(tmp_path, monkeypatch):
    monkeypatch.delenv("PIFORGE_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run_cli(["numbers", "--kind", "euler", "--max-index", "6"])[0] == 0
    assert run_cli(["verify", "--powers", "1-6", "--k-max", "4"])[0] == 0
    assert list(tmp_path.iterdir()) == []


def test_verify_shapes_and_exit():
    code, out, _ = run_cli(
        ["verify", "--powers", "1,3,5", "--k-max", "4", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 16  # header + 15 rows
    assert all(line.endswith("true") for line in lines[1:])
    code, out, _ = run_cli(["verify", "--powers", "2", "--k-max", "0", "--format", "csv"])
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_verify_bad_flags():
    code, _, err = run_cli(["verify", "--powers", "9", "--k-max", "4"])
    assert code == 2
    code, _, _ = run_cli(["verify", "--powers", "1", "--k-max", "-3"])
    assert code == 2
    code, _, _ = run_cli(["verify", "--nope"])
    assert code == 2


def test_verify_failure_exit_code(monkeypatch):
    def fake_grid(powers, k_max):
        return [IdentityCheck(1, 0, (2, 1), False)]

    # exact_commands imports verify_grid from its module when verify runs
    monkeypatch.setattr(exact_verifier, "verify_grid", fake_grid)
    code, out, _ = run_cli(["verify", "--powers", "1", "--k-max", "0", "--format", "csv"])
    assert code == 1
    assert "false" in out


def test_verify_poisoned_euler_table_fails(monkeypatch):
    def poisoned(K):
        values = list(special_numbers.euler_numbers(K).values)
        values[3] += 2  # E_6 = -59
        return special_numbers.EulerTable(tuple(values))

    def tables(k_euler, k_bern):  # the Euler table's integer form is itself
        return (1, list(poisoned(k_euler).values)), special_numbers.integer_tables(0, k_bern)[1]

    monkeypatch.setattr(exact_verifier, "integer_tables", tables)
    code, out, err = run_cli(
        ["verify", "--powers", "1", "--k-max", "4", "--format", "csv"]
    )
    assert code == 1 and err == ""
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[-1] for row in rows] == ["true"] * 3 + ["false"] * 2
    table = poisoned(4)
    for k, row in enumerate(rows):
        ratio = oracle_ratio(1, k, euler=table)
        num, den = ratio.numerator, ratio.denominator
        assert row[4] == row[5] == ("1" if ratio == 1 else render_signed(num, den, 30))
        assert row[7] == ("0" if ratio == 1 else render_signed(num - den, den, 12))


# The process entry with the Euler table poisoned as in the test above; at
# exit, the child prints every module it loaded.
POISONED_ENTRY = (
    "import atexit, runpy, sys\n"
    "from piforge import exact_verifier, special_numbers\n"
    "def tables(k_euler, k_bern):\n"
    "    values = list(special_numbers.euler_numbers(k_euler).values)\n"
    "    values[3] += 2\n"
    "    return (1, values), special_numbers.integer_tables(0, k_bern)[1]\n"
    "exact_verifier.integer_tables = tables\n"
    "atexit.register(lambda: print(*sys.modules, file=sys.stderr))\n"
    "runpy.run_module('piforge.cli', run_name='__main__', alter_sys=True)\n"
)


def test_failing_verify_runs_on_ints_through_the_process_entry():
    """A failing check prints its ratio from an integer pair: the child exits
    1 with the bytes a Fraction ratio printed (sha256 taken then), and loads
    none of fractions, decimal and numbers."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", POISONED_ENTRY,
         *"verify --powers 1 --k-max 4 --format csv".split()],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        timeout=60,
    )
    assert result.returncode == 1
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "a4b749e76de0239d45069a9021d6e3a8676e8d2078714b25fd0e2d35a21b836b"
    )
    assert not {"fractions", "decimal", "numbers"} & set(result.stderr.decode().split())


def test_verify_beyond_table_cap():
    code, out, err = run_cli(["verify", "--k-max", "254", "--format", "csv"])
    assert code == 2 and out == ""
    assert "512" in err


@pytest.mark.parametrize(
    "argv, located",
    [
        (["verify", "--powers", "-1"], ["--powers", "'-1'"]),
        (["verify", "--powers", "1-6-7"], ["--powers", "'1-6-7'"]),
        (["verify", "--powers", "x"], ["--powers", "'x'"]),
        (["sum", "--series", "gupta:p=1,k=x", "--terms", "5"], ["gupta:p=1,k=x", "'x'"]),
        (["sum", "--series", "alzer-koumandos:mu=1/0", "--terms", "5"], ["mu", "'1/0'"]),
        (["compare", "--target", "pi", "--series", "classical", "--terms", "10,y"],
         ["--terms", "'y'"]),
        (["sum", "--series", "gupta:p=6,k=254", "--terms", "5"], ["gupta:p=6,k=254", "0..253"]),
        (["compare", "--target", "pi", "--series", "gupta:k=99999", "--terms", "5"],
         ["gupta:k=99999", "0..256"]),
        (["sum", "--series", "alzer-koumandos:mu=0", "--terms", "5"],
         ["alzer-koumandos:mu=0", "mu > 0"]),
        (["sum", "--series", "alzer-koumandos:mu=-1/2", "--terms", "5"],
         ["alzer-koumandos:mu=-1/2", "mu > 0"]),
        (["sum", "--series", "kolbig", "--terms", "5", "--prec", "63"], ["--prec", "64"]),
        (["compare", "--target", "pi2", "--series", "kolbig", "--terms", "5", "--prec", "63"],
         ["--prec", "64"]),
        (["verify", "--k-max", "254"], ["--k-max", "254", "253", "512"]),
        (["verify", "--powers", "1,3,5", "--k-max", "255"], ["--k-max", "255", "254", "512"]),
        (["numbers", "--kind", "euler", "--max-index", "514"], ["--max-index", "514", "512"]),
        (["numbers", "--kind", "bernoulli", "--max-index", str(10**30)], ["--max-index", "512"]),
        (["sum", "--series", "kolbig", "--terms", "3", "--prec", str(10**22)],
         ["--prec", "1048576"]),
        (["sum", "--series", "kolbig", "--terms", "3", "--prec", "1048577"],
         ["--prec", "1048576"]),
        (["compare", "--target", "pi2", "--series", "kolbig", "--terms", "5",
          "--prec", "1048577"], ["--prec", "1048576"]),
        (["sum", "--series", "classical:p=2", "--terms", str(2**62 + 1)],
         ["--terms", str(2**62)]),
        (["sum", "--series", "classical:p=2", "--terms", str(10**20)],
         ["--terms", str(2**62)]),
        (["compare", "--target", "pi", "--series", "classical", "--terms",
          f"10,{2**62 + 1}"], ["--terms", str(2**62)]),
        (["compare", "--target", "pi", "--series", "classical", "--terms",
          f"10,{10**20}"], ["--terms", str(2**62)]),
        (["compare", "--target", "pi^^2", "--series", "kolbig", "--terms", "5"],
         ["target must be pi, pi^2, ..., pi^6", "'pi^^2'"]),
        (["compare", "--target", "p^i2", "--series", "kolbig", "--terms", "5"],
         ["target must be pi, pi^2, ..., pi^6", "'p^i2'"]),
        (["compare", "--target", "^pi^2", "--series", "kolbig", "--terms", "5"],
         ["target must be pi, pi^2, ..., pi^6", "'^pi^2'"]),
        (["compare", "--target", "pi^", "--series", "kolbig", "--terms", "5"],
         ["target must be pi, pi^2, ..., pi^6", "'pi^'"]),
        # a baseline walks every term, so its count is capped far below 2^62
        (["compare", "--target", "pi2", "--series", "kolbig", "--terms", str(2**62)],
         ["series kolbig", "10000000"]),
        (["sum", "--series", "alzer-H", "--terms", "10000001"], ["series alzer-H", "10000000"]),
        (["compare", "--target", "pi", "--series", "classical,alzer-koumandos:mu=3/2",
          "--terms", "10,10000001"], ["series alzer-koumandos:mu=3/2", "10000000"]),
        # powers past int()'s 4,300-digit limit
        (["compare", "--target", "pi" + "9" * 5000, "--series", "kolbig", "--terms", "5"],
         ["target must be pi, pi^2, ..., pi^6", "got 'pi999"]),
        (["compare", "--target", "pi^" + "0" * 4400 + "2", "--series", "kolbig", "--terms", "5"],
         ["target must be pi, pi^2, ..., pi^6", "got 'pi^000"]),
        # a zero mu is refused as zero, whatever its exponent
        (["sum", "--series", "alzer-koumandos:mu=0e99999", "--terms", "3"],
         ["alzer-koumandos:mu=0e99999", "mu > 0"]),
        # a mu past int()'s digit limit: the message names the selector, not int()
        (["sum", "--series", "alzer-koumandos:mu=" + "1" * 5000, "--terms", "3"],
         ["series 'alzer-koumandos:mu=111", "mu: cannot read '111"]),
        (["sum", "--series", "gupta:p=7,k=0", "--terms", "10"],
         ["series 'gupta:p=7,k=0' needs p in 1..6"]),
        (["sum", "--series", "gupta:p=1,k", "--terms", "10"],
         ["bad series argument 'k' in 'gupta:p=1,k'"]),
    ],
)
def test_parse_errors_are_located(argv, located):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert "invalid literal" not in err
    for text in located:
        assert text in err


@pytest.mark.parametrize(
    "selector, key",
    [
        ("gupta:p=1,k=1,q=3", "'q'"),
        ("alzer-h:p=1", "'p'"),
        ("classical:p=1,k=2", "'k'"),
        ("kolbig:mu=2", "'mu'"),
        ("alzer-koumandos:mu=2,p=1", "'p'"),
        ("gupta:p=1,k=1,k=2", "'k'"),
        ("alzer-koumandos:mu=1,mu=2", "'mu'"),
    ],
)
def test_unknown_selector_keys_rejected(selector, key):
    code, out, err = run_cli(["sum", "--series", selector, "--terms", "3"])
    assert code == 2 and out == ""
    repeated = selector.count(key.strip("'") + "=") > 1
    assert ("repeats key " if repeated else "unknown key ") + key in err


def test_gupta_order_bound_is_the_verify_range():
    for p, k_max in ((1, 256), (6, 253)):
        code, out, _ = run_cli(
            ["sum", "--series", f"gupta:p={p},k={k_max}", "--terms", "1", "--format", "csv"]
        )
        assert code == 0 and out.splitlines()[1].startswith(f'"gupta:p={p},k={k_max}",{p},')
        assert run_cli(["verify", "--powers", str(p), "--k-max", str(k_max)])[0] == 0


def test_series_ids_round_trip():
    texts = ("gupta:p=3,k=2", "classical:p=4", "alzer-h", "alzer-H", "kolbig",
             "alzer-koumandos:mu=3/2")
    selectors = [_parse_series(text) for text in texts]
    assert {sel.kind for sel in selectors} == set(SERIES)
    assert [sel.series_id for sel in selectors] == list(texts)
    for sel in selectors:
        assert _parse_series(sel.series_id, sel.p) == sel
    assert _parse_series("gupta:k=2", 5).series_id == "gupta:p=5,k=2"


def test_sum_trivial_values():
    code, out, _ = run_cli(
        ["sum", "--series", "classical:p=1", "--terms", "1", "--format", "csv"]
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "classical:p=1" and row[4] == "4" and row[5] == "4"
    code, out, _ = run_cli(["sum", "--series", "kolbig", "--terms", "1", "--format", "csv"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[4] == "1" and row[5] == "1" and row[6] == "pi^2"


@pytest.mark.parametrize("p", range(1, 7))
def test_classical_rows_equal_gupta_k0_rows(p):
    for N in ("1", "10", "1000"):
        bounds = []
        for selector in (f"classical:p={p}", f"gupta:p={p},k=0"):
            code, out, _ = run_cli(["sum", "--series", selector, "--terms", N, "--format", "csv"])
            assert code == 0
            row = dict(zip(CSV_HEADER, next(csv.reader(out.splitlines()[1:]))))
            bounds.append((row["value_lo"], row["value_hi"]))
        assert bounds[0] == bounds[1], (p, N)


def test_sum_residual_scale():
    code, out, _ = run_cli(
        [
            "sum",
            "--series",
            "gupta:p=2,k=2",
            "--terms",
            "10000",
            "--prec",
            "128",
            "--format",
            "json",
        ]
    )
    assert code == 0
    row = json.loads(out)[0]
    assert row["p"] == 2 and row["k"] == 2 and row["N"] == 10000
    residual = float(row["residual"])
    assert 1.0e-3 < abs(residual) < 2.0e-3


def test_sum_alzer_koumandos_mu():
    code, out, _ = run_cli(
        ["sum", "--series", "alzer-koumandos:mu=1/2", "--terms", "5", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines()[1].startswith("alzer-koumandos:mu=1/2,1,0,5,")
    code, _, err = run_cli(
        ["sum", "--series", "alzer-koumandos:mu=-1", "--terms", "5"]
    )
    assert code == 2
    assert "positive" in err


def test_sum_rejects_bad_series():
    code, _, _ = run_cli(["sum", "--series", "gupta:p=2", "--terms", "5"])
    assert code == 2
    code, _, _ = run_cli(["sum", "--series", "mystery", "--terms", "5"])
    assert code == 2


def test_compare_matrix_and_degenerate():
    code, out, _ = run_cli(
        [
            "compare",
            "--target",
            "pi2",
            "--series",
            "gupta:k=0,gupta:k=2,kolbig,alzer-H",
            "--terms",
            "100,1000",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    import csv as csv_module
    import io as io_module

    records = list(csv_module.reader(io_module.StringIO(out)))
    assert len(records) == 9  # header + 4 series x 2 term counts
    # residuals decrease down each column
    by_series: dict[str, list[float]] = {}
    for fields in records[1:]:
        by_series.setdefault(fields[0], []).append(abs(float(fields[7])))
    for residuals in by_series.values():
        assert residuals[0] > residuals[1]
    # single series, single N degenerates to the sum row
    code, compare_out, _ = run_cli(
        [
            "compare",
            "--target",
            "pi^4",
            "--series",
            "classical:p=4",
            "--terms",
            "50",
            "--format",
            "csv",
        ]
    )
    code2, sum_out, _ = run_cli(
        ["sum", "--series", "classical:p=4", "--terms", "50", "--format", "csv"]
    )
    assert code == code2 == 0
    assert compare_out == sum_out


PI2_KERNELS = ("kolbig_partials", "alzer_h_partials", "alzer_H_partials", "alzer_pair_partials")


# alzer-h with alzer-H takes one shared pass, whatever their order and
# however often either repeats, and a repeated selector is summed once
@pytest.mark.parametrize(
    "series, summed",
    [
        ("kolbig,alzer-h,alzer-H", ("kolbig_partials", "alzer_pair_partials")),
        ("alzer-H,kolbig,alzer-h,alzer-H,kolbig", ("kolbig_partials", "alzer_pair_partials")),
        ("alzer-h,kolbig,alzer-h", ("kolbig_partials", "alzer_h_partials")),
        ("alzer-H", ("alzer_H_partials",)),
    ],
)
def test_compare_sums_each_pi2_baseline_once(series, summed, monkeypatch):
    # series_commands looks each kernel up in prior_series when it sums
    calls = {name: [] for name in PI2_KERNELS}
    for name in PI2_KERNELS:
        kernel = getattr(prior_series, name)

        def counted(Ns, ctx, _kernel=kernel, _calls=calls[name]):
            _calls.append(list(Ns))
            return _kernel(Ns, ctx)

        monkeypatch.setattr(prior_series, name, counted)
    code, out, _ = run_cli(
        ["compare", "--target", "pi2", "--series", series,
         "--terms", "100,1000,10000", "--format", "csv"]
    )
    assert code == 0 and len(out.splitlines()) == 1 + 3 * len(series.split(","))
    assert calls == {name: [[100, 1000, 10000]] if name in summed else [] for name in PI2_KERNELS}


# stdout of the per-N evaluation this replaced
KOLBIG_TWICE = {
    "csv": """\
series_id,p,k,N,value_lo,value_hi,target,residual,exact_ok
kolbig,2,0,2,1.5,1.5,pi^2,-8.36960440109,
kolbig,2,0,2,1.5,1.5,pi^2,-8.36960440109,
kolbig,2,0,1,1,1,pi^2,-8.86960440109,
kolbig,2,0,1,1,1,pi^2,-8.86960440109,
kolbig,2,0,2,1.5,1.5,pi^2,-8.36960440109,
kolbig,2,0,2,1.5,1.5,pi^2,-8.36960440109,
""",
    "pretty": """\
N  kolbig          kolbig
-  --------------  --------------
2  -8.36960440109  -8.36960440109
1  -8.86960440109  -8.86960440109
2  -8.36960440109  -8.36960440109
""",
}


@pytest.mark.parametrize("fmt", sorted(KOLBIG_TWICE))
def test_compare_rows_keep_the_given_order(fmt):
    code, out, _ = run_cli(
        ["compare", "--target", "pi2", "--series", "kolbig,kolbig", "--terms", "2,1,2",
         "--format", fmt]
    )
    assert code == 0 and out == KOLBIG_TWICE[fmt]


def test_compare_validation():
    code, _, err = run_cli(
        ["compare", "--target", "pi2", "--series", "", "--terms", "10"]
    )
    assert code == 2
    code, _, err = run_cli(
        ["compare", "--target", "pi2", "--series", "classical:p=3", "--terms", "10"]
    )
    assert code == 2
    assert "target" in err or "pi" in err
    code, _, _ = run_cli(
        ["compare", "--target", "pi9", "--series", "kolbig", "--terms", "10"]
    )
    assert code == 2


def test_json_round_trip_bytes():
    code, out, _ = run_cli(
        ["verify", "--powers", "1-6", "--k-max", "3", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(out)
    assert json.dumps(rows, indent=2) + "\n" == out
    assert [row["exact_ok"] for row in rows] == [True] * 24


def test_csv_round_trip_bytes():
    import csv as csv_module
    import io as io_module

    code, out, _ = run_cli(
        ["verify", "--powers", "2,4", "--k-max", "2", "--format", "csv"]
    )
    assert code == 0
    parsed = list(csv_module.reader(io_module.StringIO(out)))
    buffer = io_module.StringIO()
    writer = csv_module.writer(buffer, lineterminator="\n")
    writer.writerows(parsed)
    assert buffer.getvalue() == out


def test_worker_determinism():
    base = run_cli(
        ["verify", "--powers", "1-6", "--k-max", "8", "--format", "csv", "--workers", "1"]
    )
    again = run_cli(
        ["verify", "--powers", "1-6", "--k-max", "8", "--format", "csv", "--workers", "8"]
    )
    assert base == again
    one = run_cli(
        ["sum", "--series", "gupta:p=1,k=1", "--terms", "9000", "--format", "csv",
         "--workers", "1"]
    )
    eight = run_cli(
        ["sum", "--series", "gupta:p=1,k=1", "--terms", "9000", "--format", "csv",
         "--workers", "8"]
    )
    assert one == eight


def test_bound_strings_roundtrip_at_precision():
    code, out, _ = run_cli(
        ["sum", "--series", "gupta:p=3,k=1", "--terms", "200", "--prec", "128",
         "--format", "json"]
    )
    assert code == 0
    row = json.loads(out)[0]
    lo, hi = Fraction(row["value_lo"]), Fraction(row["value_hi"])
    assert lo <= hi
    # parsed bounds recover the interval to well within context precision
    assert hi - lo < Fraction(1, 10**35)


def test_pretty_has_width_column():
    code, out, _ = run_cli(
        ["sum", "--series", "classical:p=2", "--terms", "100", "--format", "pretty"]
    )
    assert code == 0
    assert "+/-width" in out.splitlines()[0]


ENGINE = {
    f"piforge.{name}"
    for name in ("report", "exact_verifier", "gupta_series", "walk", "tails", "numeric_engine",
                 "prior_series", "closed_forms")
}
# The process entry, run as `python -m piforge.cli` runs it; at exit, the
# child prints whether the heap was frozen and every module it loaded.
ENTRY = (
    "import atexit, gc, runpy, sys\n"
    "atexit.register(lambda: print(gc.get_freeze_count() > 0, *sys.modules, file=sys.stderr))\n"
    "runpy.run_module('piforge.cli', run_name='__main__', alter_sys=True)\n"
)


# argument parsing: a well-formed argv never imports argparse, with its
# gettext and locale
PARSER = {"argparse", "gettext", "locale"}


def run_entry_modules(argv: str) -> tuple[str, bool, set[str]]:
    """The process entry's stdout for ``argv``, whether it froze the heap, and
    the modules it loaded.  -S keeps the site hooks, which may import json
    themselves, out of the list."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-S", "-c", ENTRY, *argv.split()],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert result.returncode == 0 and result.stdout
    frozen, *modules = result.stderr.split()
    return result.stdout, frozen == "True", set(modules)


# the standard modules no verify, numbers, sum or compare run loads: they
# run on ints alone, a mu included, and write their reports without csv or json
NOT_EXACT = {"fractions", "decimal", "numbers", "csv", "json"}
# the interval and series code that value rows need, and verify does not
VALUE_ROWS = {"piforge.prior_series", "piforge.numeric_engine", "piforge.gupta_series",
              "piforge.walk", "piforge.tails"}
# the benchmark's no-op set_memo_cap: n! comes from math, so no verify, sum or
# compare run loads it
MEMO = {"piforge.exact_core"}
# the module that runs numbers and verify, and the one that runs sum and
# compare: a run loads its own subcommand's and not the other
EXACT_COMMANDS = {"piforge.exact_commands"}
SERIES_COMMANDS = {"piforge.series_commands"}
# the two kernels of a gupta row: a run loads the one its rows' path takes
WALK, TAILS = {"piforge.walk"}, {"piforge.tails"}


@pytest.mark.parametrize(
    "argv, loads, skips",
    [
        ("numbers --kind euler --max-index 24 --format csv",
         {"piforge.special_numbers"} | EXACT_COMMANDS,
         ENGINE | PARSER | NOT_EXACT | SERIES_COMMANDS),
        ("numbers --kind bernoulli --max-index 12 --format json",
         {"piforge.special_numbers"} | EXACT_COMMANDS,
         ENGINE | PARSER | NOT_EXACT | SERIES_COMMANDS),
        ("sum --series gupta:p=2,k=2 --terms 100 --format csv",
         {"piforge.gupta_series"} | SERIES_COMMANDS,
         PARSER | MEMO | NOT_EXACT | EXACT_COMMANDS
         | {"piforge.exact_verifier", "piforge.prior_series"}),
        ("sum --series gupta:p=1,k=3 --terms 1000 --format pretty",
         {"piforge.gupta_series"} | SERIES_COMMANDS,
         PARSER | MEMO | NOT_EXACT | EXACT_COMMANDS
         | {"piforge.exact_verifier", "piforge.prior_series"}),
        ("compare --target pi2 --series gupta:k=1,kolbig,alzer-H --terms 10,100 --format json",
         {"piforge.gupta_series", "piforge.prior_series"} | SERIES_COMMANDS,
         PARSER | MEMO | NOT_EXACT | EXACT_COMMANDS | {"piforge.exact_verifier"}),
        ("compare --target pi2 --series kolbig,alzer-h --terms 10,100 --format pretty",
         {"piforge.prior_series"} | SERIES_COMMANDS,
         PARSER | MEMO | NOT_EXACT | EXACT_COMMANDS | {"piforge.exact_verifier"}),
        # a mu is read into an integer pair, as Fraction would read it
        ("compare --target pi --series alzer-koumandos:mu=3/2,classical --terms 10,100 --format csv",
         {"piforge.prior_series", "piforge.gupta_series"} | SERIES_COMMANDS,
         PARSER | MEMO | NOT_EXACT | EXACT_COMMANDS | {"piforge.exact_verifier"}),
        *[
            (f"verify --powers 1-6 --k-max 8 --format {fmt}",
             {"piforge.exact_verifier"} | EXACT_COMMANDS,
             PARSER | NOT_EXACT | VALUE_ROWS | MEMO | SERIES_COMMANDS)
            for fmt in ("csv", "json")
        ],
        # --help and an abbreviated flag go to argparse
        ("sum --help",
         {"argparse"} | SERIES_COMMANDS,
         EXACT_COMMANDS | {"piforge.gupta_series", "piforge.exact_verifier"}),
        ("sum --series gupta:p=2,k=2 --term 100 --format csv",
         {"argparse", "piforge.gupta_series"} | SERIES_COMMANDS,
         MEMO | NOT_EXACT | EXACT_COMMANDS | {"piforge.exact_verifier", "piforge.prior_series"}),
        ("verify --powers 1-6 --k-max 8 --format pretty",
         {"piforge.exact_verifier"} | EXACT_COMMANDS,
         PARSER | NOT_EXACT | VALUE_ROWS | MEMO | SERIES_COMMANDS),
        ("numbers --kind euler --max-index 24 --format json",
         {"piforge.special_numbers"} | EXACT_COMMANDS,
         ENGINE | PARSER | NOT_EXACT | SERIES_COMMANDS),
        ("sum --series alzer-koumandos:mu=1.5e-3 --terms 100 --format csv",
         {"piforge.prior_series"} | SERIES_COMMANDS,
         PARSER | MEMO | NOT_EXACT | EXACT_COMMANDS
         | {"piforge.exact_verifier", "piforge.gupta_series"} | WALK | TAILS),
        # converge-sum's anchor row, which its tail settles, and its set-up
        # row, which walks one term
        ("sum --series gupta:p=1,k=8 --terms 100000 --prec 128",
         {"piforge.gupta_series"} | TAILS | SERIES_COMMANDS,
         PARSER | MEMO | NOT_EXACT | EXACT_COMMANDS | WALK
         | {"piforge.exact_verifier", "piforge.prior_series"}),
        ("sum --series classical:p=1 --terms 1",
         {"piforge.gupta_series"} | WALK | SERIES_COMMANDS,
         PARSER | MEMO | NOT_EXACT | EXACT_COMMANDS | TAILS
         | {"piforge.exact_verifier", "piforge.prior_series"}),
        # compare-baselines' anchor: N = 100 and 1000 walk, 10^4 takes the tail
        ("compare --target pi --series gupta:k=8,classical:p=1,alzer-koumandos:mu=5"
         " --terms 100,1000,10000 --prec 1024 --format csv",
         {"piforge.gupta_series", "piforge.prior_series"} | WALK | TAILS | SERIES_COMMANDS,
         PARSER | MEMO | NOT_EXACT | EXACT_COMMANDS | {"piforge.exact_verifier"}),
    ],
)
def test_each_run_loads_only_what_it_calls(argv, loads, skips):
    """The process entry loads a subcommand's own modules and no others, and
    freezes the heap before the interpreter exits.  argparse parses only what
    the fast path declines, and an abbreviation prints what its spelled-out
    form prints."""
    stdout, frozen, modules = run_entry_modules(argv)
    assert frozen
    assert loads <= modules
    assert not skips & modules
    if " --term " in argv:
        assert stdout == run_entry_modules(argv.replace(" --term ", " --terms "))[0]


def test_package_import_loads_no_submodule():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys, piforge\n"
        "print(sorted(m for m in sys.modules if m.startswith('piforge.')))\n"
        "from piforge import prefactor\n"
        "print(sorted(m for m in sys.modules if m.startswith('piforge.')))\n"
        "from piforge import PrecisionContext, euler_numbers\n"
        "print(sorted(m for m in sys.modules if m.startswith('piforge.')))\n"
        "print(hasattr(piforge, 'no_such_name'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert result.stdout.splitlines() == [
        "[]",
        "['piforge.closed_forms', 'piforge.special_numbers']",
        "['piforge.closed_forms', 'piforge.numeric_engine', 'piforge.special_numbers']",
        "False",
    ]


def run_entry(argv: str, stdout, unbuffered: bool) -> subprocess.CompletedProcess:
    """The process entry, as `python -m piforge.cli` runs it, with its
    stdout on ``stdout``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "piforge.cli", *argv.split()],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=60,
    )


def assert_one_write_error(result: subprocess.CompletedProcess) -> None:
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("piforge: error: cannot write the report: ")
    assert result.stderr.count("\n") == 1, result.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv", ["verify --k-max 64", "numbers --kind euler --max-index 4", "--help", "verify --help"]
)
def test_report_to_a_full_device_exits_2(argv, unbuffered):
    """A report or help text the device refuses exits 2 with one error
    line, whether the write or the flush before shutdown fails, and
    shutdown stays silent."""
    with open("/dev/full", "w") as full:
        assert_one_write_error(run_entry(argv, full, unbuffered))


@pytest.mark.parametrize("unbuffered", [False, True])
def test_report_to_a_closed_pipe_exits_2(unbuffered):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first byte is written
    try:
        result = run_entry("verify --k-max 253 --format json", write, unbuffered)
    finally:
        os.close(write)
    assert_one_write_error(result)
    assert "Broken pipe" in result.stderr


def test_main_returns_2_when_the_report_cannot_be_written():
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    err = io.StringIO()
    with redirect_stdout(Full()), redirect_stderr(err):
        code = main(["verify", "--k-max", "2"])
    assert code == 2
    assert err.getvalue() == (
        f"piforge: error: cannot write the report: {os.strerror(errno.ENOSPC)}\n"
    )


def test_main_never_freezes_the_heap():
    before = gc.get_freeze_count()
    assert run_cli(["numbers", "--kind", "euler", "--max-index", "4"])[0] == 0
    assert run_cli(["sum", "--series", "kolbig", "--terms", "3"])[0] == 0
    assert gc.get_freeze_count() == before


def test_import_loads_no_heavy_modules():
    # -S skips the site hooks, which may import typing themselves
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import piforge.cli; "
        "print(sorted({'dataclasses', 'typing', 'inspect', 'ast'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
