from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from piforge import special_numbers
from piforge.cli import main
from piforge.exact_verifier import IdentityCheck
from piforge.report import CSV_HEADER, render_signed
from test_exact_verifier import oracle_ratio


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
    import piforge.cli as cli_module

    def fake_grid(powers, k_max, store=None):
        return [IdentityCheck(1, 0, Fraction(2), False)]

    monkeypatch.setattr(cli_module, "verify_grid", fake_grid)
    code, out, _ = run_cli(["verify", "--powers", "1", "--k-max", "0", "--format", "csv"])
    assert code == 1
    assert "false" in out


def test_verify_poisoned_euler_table_fails(monkeypatch):
    real = special_numbers.euler_numbers

    def poisoned(K):
        values = list(real(K).values)
        values[3] += 2  # E_6 = -59
        return special_numbers.EulerTable(tuple(values))

    monkeypatch.setattr(special_numbers, "euler_numbers", poisoned)
    code, out, err = run_cli(
        ["verify", "--powers", "1", "--k-max", "4", "--format", "csv"]
    )
    assert code == 1 and err == ""
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[-1] for row in rows] == ["true"] * 3 + ["false"] * 2
    table = poisoned(4)
    for k, row in enumerate(rows):
        ratio = oracle_ratio(1, k, euler=table)
        shown = "1" if ratio == 1 else render_signed(ratio, 30)
        assert row[4] == row[5] == shown
        assert row[7] == ("0" if ratio == 1 else render_signed(ratio - 1, 12))


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
    ],
)
def test_unknown_selector_keys_rejected(selector, key):
    code, out, err = run_cli(["sum", "--series", selector, "--terms", "3"])
    assert code == 2 and out == ""
    assert "unknown key " + key in err


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
