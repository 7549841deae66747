"""Tests of the benchmark itself: output checks, seeded job lists, and a
short run that must leave the checkout as it found it.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import decks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from oracle import Oracle, check  # noqa: E402
from piforge.gupta_series import tail_bound  # noqa: E402


@pytest.fixture(scope="module")
def scratch():
    run.TMP.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="tests-", dir=run.TMP)
    yield path
    shutil.rmtree(path)
    if not any(run.TMP.iterdir()):
        run.TMP.rmdir()


def _output(job: decks.Job, cache_dir: str) -> str:
    _, code, out = layers.run_in_process(job.argv, cache_dir)
    assert code == 0
    return out.decode()


def _flip(text: str, field: str) -> str:
    """``text`` with the leading digit of ``field`` changed.  (A change far
    down a 300-digit bound can leave a valid, only looser, enclosure.)"""
    start = text.index(field)
    i = next(i for i in range(start, start + len(field)) if text[i].isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]


SUM = decks.sum_job("gupta:p=1,k=8", 2000, 128, "pretty", 1)
COMPARE_CSV = decks.compare_job("pi2", ["gupta:k=3", "kolbig", "alzer-h"], (10, 100), 1024, "csv")
COMPARE_PRETTY = decks.compare_job("pi", ["classical:p=1", "alzer-koumandos:mu=2/3"], (10, 100), 1024, "pretty")
VERIFY = decks.verify_job("1,3,5", 6, "json")


def _fields(job: decks.Job, text: str) -> list[str]:
    """The printed numbers a corrupted digit could hide in."""
    if job.fmt == "csv":
        row = list(csv.DictReader(io.StringIO(text)))[-1]
        return [row["value_lo"], row["value_hi"], row["residual"]]
    if job.command == "sum":
        cells = text.splitlines()[2].split()
        return [cells[4], cells[5], cells[6], cells[8]]  # lo, hi, +/-width, residual
    return [text.splitlines()[-1].split()[-1]]  # a residual cell


@pytest.mark.parametrize("job", [SUM, COMPARE_CSV, COMPARE_PRETTY], ids=lambda j: f"{j.command}-{j.fmt}")
def test_flipped_digit_fails_check(job, scratch):
    oracle = Oracle(tail_bound)
    text = _output(job, scratch)
    assert check(job, 0, text.encode(), oracle).ok
    for field in _fields(job, text):
        bad = _flip(text, field)
        assert not check(job, 0, bad.encode(), oracle).ok, field


def test_verify_corruptions_fail_check(scratch):
    oracle = Oracle(tail_bound)
    text = _output(VERIFY, scratch)
    assert check(VERIFY, 0, text.encode(), oracle).ok
    records = json.loads(text)
    for key, value in (("value_lo", "7"), ("exact_ok", False), ("k", 9)):
        bad = [dict(rec) for rec in records]
        bad[3][key] = value
        assert not check(VERIFY, 0, json.dumps(bad).encode(), oracle).ok, key
    assert not check(VERIFY, 0, json.dumps(records[:-1]).encode(), oracle).ok
    assert not check(VERIFY, 1, text.encode(), oracle).ok


def test_corrupted_output_raises_failed_count(scratch):
    tally = run.Tally(Oracle(tail_bound))
    text = _output(SUM, scratch)
    tally.record(SUM, 0, text.encode())
    assert (tally.attempted, tally.failed) == (1, 0)
    tally.record(SUM, 0, _flip(text, _fields(SUM, text)[0]).encode())
    assert (tally.attempted, tally.failed) == (2, 1)


def test_nondeterministic_stdout_fails(scratch):
    tally = run.Tally(Oracle(tail_bound))
    text = _output(VERIFY, scratch)
    tally.record(VERIFY, 0, text.encode())
    tally.record(VERIFY, 0, (text.replace("\n", "\r\n")).encode())
    assert tally.failed == 1


@pytest.mark.parametrize("workload", decks.WORKLOADS)
def test_rounds_are_seeded_and_alike(workload):
    first = decks.job_rounds(workload, 7)
    assert first == decks.job_rounds(workload, 7)
    assert first != decks.job_rounds(workload, 8)
    items = [sum(job.items for job in r) for seed in (7, 8) for r in decks.job_rounds(workload, seed)]
    # every round has the same rungs, so rounds do about the same work
    assert max(items) < 1.1 * min(items)


def test_anchor_leads_every_seed():
    for seed in (1, 2):
        sums = {job.argv for job in decks.job_rounds("converge-sum", seed)[0]}
        assert decks.sum_job("gupta:p=1,k=8", 100_000, 128, "pretty", 2).argv in sums
        compares = [job for job in decks.job_rounds("compare-baselines", seed)[0] if job.target_p == 1]
        assert compares[0].fmt == "csv" and "alzer-koumandos:mu=5" in compares[0].series


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(decks.WORKLOADS)


def _git_status() -> str:
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_run_leaves_checkout_untouched(trace):
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    before = _git_status()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare-baselines", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert _git_status() == before
    assert not any(run.TMP.glob("run-*"))


def test_fails_without_sources(scratch):
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
