"""Run the benchmark over several seeds and print the tables in BASELINE.md.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 --seconds 30

For every workload it makes one run per seed with ``--trace 0`` and reports
each end-to-end metric's median, quartiles and spread (the distance between
the quartiles as a share of the median), then one run with ``--trace 1`` and
its per-layer metrics.  Every run's output checks count towards the
``failed`` column.  ``--workloads`` and ``--no-trace`` narrow the work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from decks import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def environment() -> list[str]:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "not a git checkout"
    return [
        f"- Python {platform.python_version()}",
        f"- nproc {os.cpu_count()}, CPU {cpu}",
        f"- git {sha}",
    ]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    print("## Environment\n")
    print("\n".join(environment()))
    for workload in args.workloads.split(","):
        runs = [_run(workload, seed, args.seconds, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n## {workload}: end to end, seeds {args.seeds}, {args.seconds} s per run\n")
        print(f"{attempted} jobs attempted, {failed} failed.\n")
        print("| metric | unit | median | q1 | q3 | spread | values |")
        print("| --- | --- | --- | --- | --- | --- | --- |")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, rel = spread(values)
            shown = " ".join(f"{v:.4g}" for v in values)
            print(f"| {name} | {first['unit']} | {median:.6g} | {q1:.6g} | {q3:.6g} | {rel:.3f} | {shown} |")
        if args.no_trace:
            continue
        traced = _run(workload, seeds[0], args.seconds, 1)
        print(f"\n## {workload}: per layer, seed {seeds[0]}\n")
        print(f"{traced['attempted']} jobs attempted, {traced['failed']} failed.\n")
        print("| metric | unit | value |")
        print("| --- | --- | --- |")
        for name, metric in traced["metrics"].items():
            print(f"| {name} | {metric['unit']} | {metric['value']:.6g} |")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
