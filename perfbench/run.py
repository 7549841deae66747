"""piforge benchmark: drive the CLI as a closed loop and report one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 30 --trace 0

One client runs one job at a time; every job is a subprocess
``python -m piforge.cli ...`` with ``PYTHONPATH=src``, so interpreter start
is part of its time.  Each run uses fresh cache directories under
``.perfbench-tmp/`` in the checkout and deletes them when it ends, so the
committed ``.piforge-cache/`` is never read or rewritten.

``--trace 0`` measures the end-to-end metrics: whole rounds of jobs (see
decks.py) run until ``--seconds`` have passed, then one job is repeated to
check that its stdout is byte-identical, and every output is checked (see
oracle.py).  Times are scaled to a reference machine speed, see
REFERENCE_CALIBRATION_S.
``--trace 1`` measures the per-layer metrics: a shorter subprocess pass
picks the jobs, and the same jobs then run in-process through
``piforge.cli.main`` three times, untraced, traced (see layers.py) and with
interval operations counted, followed by the interval microbenchmark.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import decks
import layers
from oracle import Oracle, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench-tmp"

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s.p50": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "enclosure_bits_max": "bit",
    "ok_ratio": "ratio",
}

# The launcher times a fixed piece of work around every job
# (launcher.calibrate).  End-to-end times are scaled by
# REFERENCE_CALIBRATION_S / that time, giving seconds on a machine that does
# the work in this long: a 2-core Intel Xeon with CPython 3.11 at full
# speed, where the seed baseline was recorded.  A neighbour that slows the
# machine for a minute slows the calibration as much as the job, and drops
# out of the figures.
REFERENCE_CALIBRATION_S = 0.020

SETUP_REPEATS = {"verify-deep": 5, "converge-sum": 7, "compare-baselines": 7}
STARTUP_REPEATS = 5
# share of --seconds the traced run spends on its subprocess pass; the three
# in-process passes over the same jobs take about three times as long again
TRACE_SHARE = 0.25


@dataclass
class JobRun:
    job: decks.Job
    seconds: float
    code: int
    stdout: bytes
    rss_mb: float
    cpu_s: float
    calibration_s: float

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference machine speed (see REFERENCE_CALIBRATION_S)."""
        return self.seconds * REFERENCE_CALIBRATION_S / self.calibration_s


class Runner:
    """This run's scratch directory under ``.perfbench-tmp/`` and its job
    launcher (see launcher.py), which starts every subprocess."""

    def __init__(self):
        TMP.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="run-", dir=TMP)
        self._launcher = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.dir)

    def spawn(self, argv: list[str], env: dict) -> tuple[dict, bytes]:
        out, err = os.path.join(self.dir, "stdout"), os.path.join(self.dir, "stderr")
        request = {"argv": argv, "env": env, "cwd": str(ROOT), "stdout": out, "stderr": err}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        if reply["code"] != 0:
            text = Path(err).read_text("utf-8", "replace")[-2000:]
            sys.stderr.write(f"perfbench: {' '.join(argv[3:])}: exit {reply['code']}\n{text}")
        return reply, Path(out).read_bytes()

    def job(self, job: decks.Job, cache_dir: str) -> JobRun:
        """One job as a CLI process, with its wall time and wait4 usage."""
        env = dict(os.environ, PYTHONPATH="src", PIFORGE_CACHE_DIR=cache_dir)
        reply, out = self.spawn([sys.executable, "-m", "piforge.cli", *job.argv], env)
        return JobRun(
            job,
            reply["seconds"],
            reply["code"],
            out,
            reply["rss_kb"] / 1024,
            reply["cpu_s"],
            reply["calibration_s"],
        )

    def close(self):
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()
        self._launcher.stdout.close()
        shutil.rmtree(self.dir, ignore_errors=True)
        if not any(TMP.iterdir()):
            TMP.rmdir()


class Tally:
    """Jobs attempted and failed.  A job fails on a wrong exit code, a
    failed output check, or stdout that differs from the first run of the
    same job in this benchmark run."""

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.widest = []
        self._digests = {}

    def record(self, job, code: int, stdout: bytes):
        self.attempted += 1
        verdict = check(job, code, stdout, self.oracle)
        reason = verdict.reason
        digest = hashlib.sha256(stdout).hexdigest()
        if verdict.ok and self._digests.setdefault(job, digest) != digest:
            reason = "stdout differs from an earlier run of the same job"
        if not verdict.ok or reason:
            self.failed += 1
            sys.stderr.write(f"perfbench: FAILED {' '.join(job.argv)}: {reason}\n")
        elif verdict.enclosure_bits is not None:
            self.widest.append(verdict.enclosure_bits)

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }


def set_up(runner: Runner, workload: str, rounds) -> tuple[float, str, list[JobRun]]:
    """Seconds of one set-up in a fresh cache directory, that directory, and
    the set-up's job runs."""
    cache = runner.fresh_dir()
    runs = [runner.job(job, cache) for job in decks.setup_jobs(workload, rounds)]
    return sum(r.scaled_s for r in runs), cache, runs


def timed_loop(runner: Runner, rounds, cache: str, seconds: float) -> list[JobRun]:
    """Closed loop over whole rounds of jobs until ``seconds`` have passed."""
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        for job in rounds[len(runs) // len(rounds[0]) % len(rounds)]:
            runs.append(runner.job(job, cache))
    return runs


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    rounds = decks.job_rounds(workload, seed)
    setups = []
    for _ in range(SETUP_REPEATS[workload]):
        setup_s, cache, runs = set_up(runner, workload, rounds)
        setups.append(setup_s)
        for r in runs:
            tally.record(r.job, r.code, r.stdout)
    runs = timed_loop(runner, rounds, cache, seconds)
    # determinism: repeat the smallest job and compare stdout bytes
    repeat = runner.job(min((r.job for r in runs), key=lambda job: job.items), cache)
    for r in runs + [repeat]:
        tally.record(r.job, r.code, r.stdout)
    # a run is whole rounds of equal make-up; the median round rate is the
    # rate least moved by a few seconds of a busy machine
    size = len(rounds[0])
    round_rates = [
        sum(r.job.items for r in runs[i : i + size]) / sum(r.scaled_s for r in runs[i : i + size])
        for i in range(0, len(runs), size)
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "job_s.p50": statistics.median(r.scaled_s for r in runs),
        "items_per_s": statistics.median(round_rates),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "enclosure_bits_max": max(tally.widest, default=1.0),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    return tally.result(metrics, END_TO_END_UNITS)


# -- traced run ----------------------------------------------------------------------


def _startup_seconds(runner: Runner) -> float:
    """Median wall time of interpreter start plus ``import piforge.cli``."""
    env = dict(os.environ, PYTHONPATH="src")
    samples = []
    for _ in range(STARTUP_REPEATS):
        reply, _ = runner.spawn([sys.executable, "-c", "import piforge.cli"], env)
        samples.append(reply["seconds"])
    return statistics.median(samples)


def _in_process(runner: Runner, groups, tally: Tally, recorder, counters, op_counts):
    """Run every job in-process three times in a row: untraced, traced, and
    with interval operations counted, so that drift of the machine's speed
    falls on both sides of the overhead.  Each group of jobs starts in fresh
    cache directories, one per kind of run.  Returns the untraced and the
    traced job seconds."""
    plain_s = traced_s = 0.0
    for group in groups:
        plain_cache, traced_cache, counted_cache = (runner.fresh_dir() for _ in range(3))
        for job in group:
            seconds, code, out = layers.run_in_process(job.argv, plain_cache)
            plain_s += seconds
            tally.record(job, code, out)

            patch = layers.install_spans(recorder, counters)
            try:
                seconds, code, out = layers.run_in_process(
                    job.argv, traced_cache, before=lambda: (recorder.discard(), counters.new_job())
                )
            finally:
                patch.restore()
            recorder.fold_job()
            traced_s += seconds
            tally.record(job, code, out)

            patch = layers.install_op_counters(op_counts)
            try:
                _, code, out = layers.run_in_process(job.argv, counted_cache)
            finally:
                patch.restore()
            tally.record(job, code, out)
    counters.new_job()
    return plain_s, traced_s


def traced(runner: Runner, workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    rounds = decks.job_rounds(workload, seed)
    setup = decks.setup_jobs(workload, rounds)
    _, cache, setup_runs = set_up(runner, workload, rounds)
    runs = timed_loop(runner, rounds, cache, seconds * TRACE_SHARE)
    for r in setup_runs + runs:
        tally.record(r.job, r.code, r.stdout)
    startup_s = _startup_seconds(runner)

    # the in-process runs must print the bytes the subprocesses printed
    recorder, counters, op_counts = layers.SpanRecorder(), layers.Counters(), {}
    groups = (setup + [r.job for r in runs], list(decks.PROBE))
    plain_s, traced_s = _in_process(runner, groups, tally, recorder, counters, op_counts)

    metrics = layer_metrics(recorder, counters, {op: next(c) for op, c in op_counts.items()})
    metrics.update(layers.microbench(seed))
    metrics.update(
        {
            "cli.startup_s": startup_s,
            "cli.cpu_s": sum(r.cpu_s for r in runs),
            "cli.wall_s": sum(r.seconds for r in runs),
            "trace.job_s": plain_s,
            "trace.traced_s": traced_s,
            "trace.overhead": traced_s / plain_s - 1,
        }
    )
    metrics["trace.self_gap"] = abs(metrics["trace.self_sum_s"] - plain_s) / plain_s
    return tally.result(metrics, PER_LAYER_UNITS)


PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    "cli.cpu_s": "s",
    "cli.wall_s": "s",
    "cli.self_s": "s",
    "report.render_s": "s",
    "report.rows": "count",
    "report.bytes": "B",
    "report.self_s": "s",
    "special_numbers.generate_s": "s",
    "special_numbers.entries_generated": "count",
    "special_numbers.persist_s": "s",
    "special_numbers.cache_bytes": "B",
    "special_numbers.load_s": "s",
    "special_numbers.cache_hits": "count",
    "special_numbers.cache_misses": "count",
    "special_numbers.self_s": "s",
    "exact_core.factorial_calls": "count",
    "exact_core.binomial_calls": "count",
    "exact_core.self_s": "s",
    "exact_core.repeat_ratio": "ratio",
    "closed_forms.coeff_calls": "count",
    "closed_forms.coeff_s": "s",
    "closed_forms.coeff_repeat_ratio": "ratio",
    "closed_forms.self_s": "s",
    "exact_verifier.identities": "count",
    "exact_verifier.reduce_s": "s",
    "exact_verifier.summand_bits": "bit",
    "exact_verifier.failed": "count",
    "gupta_series.terms": "count",
    "gupta_series.self_s": "s",
    "gupta_series.ns_per_term": "ns",
    "gupta_series.tail_bound_s": "s",
    "gupta_series.terms_per_distinct": "ratio",
    "prior_series.terms": "count",
    "prior_series.self_s": "s",
    "prior_series.ns_per_term": "ns",
    "numeric_engine.pi_s": "s",
    "numeric_engine.self_s": "s",
    **{f"numeric_engine.ops.{op}": "count" for op in ("add", "sub", "mul", "mul_ratio", "from_rational")},
    **{
        f"numeric_engine.{op}_ns.b{bits}": "ns"
        for op in ("add", "mul", "mul_ratio", "from_rational")
        for bits in (128, 1024)
    },
    "trace.job_s": "s",
    "trace.traced_s": "s",
    "trace.overhead": "ratio",
    "trace.self_sum_s": "s",
    "trace.self_gap": "ratio",
}


def layer_metrics(recorder, counters, ops: dict) -> dict:
    """Per-layer metrics from the traced pass's spans and counts."""
    inclusive = recorder.inclusive
    v = counters.values
    layer_self = {
        layer: sum(t for name, t in recorder.self_time.items() if name.split(".")[0] == layer)
        for layer in layers.LAYERS
    }

    def span_s(*names):
        return sum(inclusive[name] for name in names)

    def ratio(num, den):
        return num / den if den else 0.0

    gupta_terms = v["gupta_terms"]
    prior_terms = v["prior_terms"]
    exact_calls = v["factorial_calls"] + v["binomial_calls"]
    metrics = {
        "cli.self_s": layer_self["cli"],
        "report.render_s": span_s("report.render_report"),
        "report.rows": v["report_rows"],
        "report.bytes": v["report_bytes"],
        "report.self_s": layer_self["report"],
        "special_numbers.generate_s": span_s(
            "special_numbers.euler_numbers", "special_numbers.bernoulli_numbers"
        ),
        "special_numbers.entries_generated": v["entries_generated"],
        "special_numbers.persist_s": span_s("special_numbers.save_cache"),
        "special_numbers.cache_bytes": v["cache_bytes"],
        "special_numbers.load_s": span_s("special_numbers.load_cache"),
        "special_numbers.cache_hits": v["table_requests"] - v["cache_misses"],
        "special_numbers.cache_misses": v["cache_misses"],
        "special_numbers.self_s": layer_self["special_numbers"],
        "exact_core.factorial_calls": v["factorial_calls"],
        "exact_core.binomial_calls": v["binomial_calls"],
        "exact_core.self_s": layer_self["exact_core"],
        "exact_core.repeat_ratio": ratio(v["factorial_repeats"] + v["binomial_repeats"], exact_calls),
        "closed_forms.coeff_calls": v["coeff_calls"],
        "closed_forms.coeff_s": span_s("closed_forms.beta_pi_coeff", "closed_forms.zeta_pi_coeff"),
        "closed_forms.coeff_repeat_ratio": ratio(v["coeff_repeats"], v["coeff_calls"]),
        "closed_forms.self_s": layer_self["closed_forms"],
        "exact_verifier.identities": v["identities"],
        "exact_verifier.reduce_s": layer_self["exact_verifier"],
        "exact_verifier.summand_bits": v["summand_bits"],
        "exact_verifier.failed": v["failed"],
        "gupta_series.terms": gupta_terms,
        "gupta_series.self_s": layer_self["gupta_series"],
        "gupta_series.ns_per_term": ratio(
            1e9 * span_s("gupta_series.partial_sum", "gupta_series.classical_partial"), gupta_terms
        ),
        "gupta_series.tail_bound_s": span_s("gupta_series.tail_bound"),
        "gupta_series.terms_per_distinct": ratio(gupta_terms, counters.distinct_terms),
        "prior_series.terms": prior_terms,
        "prior_series.self_s": layer_self["prior_series"],
        "prior_series.ns_per_term": ratio(
            1e9
            * span_s(
                "prior_series.alzer_h_partial",
                "prior_series.alzer_H_partial",
                "prior_series.kolbig_partial",
                "prior_series.alzer_koumandos_partial",
            ),
            prior_terms,
        ),
        "numeric_engine.pi_s": recorder.first_pi_s,
        "numeric_engine.self_s": layer_self["numeric_engine"],
        "trace.self_sum_s": sum(layer_self.values()),
    }
    metrics.update({f"numeric_engine.ops.{op}": n for op, n in ops.items()})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=decks.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "piforge" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no piforge sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from piforge.gupta_series import tail_bound

    runner = Runner()
    saved_env = dict(os.environ)
    try:
        measure = traced if args.trace else end_to_end
        result = measure(runner, args.workload, args.seed, args.seconds, Tally(Oracle(tail_bound)))
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
        runner.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
