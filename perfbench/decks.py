"""Seeded job lists for the three benchmark workloads.

A job is one ``piforge`` CLI invocation.  A workload's jobs come in rounds,
and a run always executes whole rounds.  Every round has the same five
tiers: one cheap job, three middle jobs of different shapes but about equal
cost, and one expensive job, so the median job is a middle one and the
cheap and expensive jobs reach the ends of each parameter's range.  A
shape's parameters fix its cost (power set and K, series and N).  The seed
draws what changes the cost little: each value within a few percent of its
shape, the output formats, which of the equal-cost series go where, the
alzer-koumandos parameter, and the order of the jobs.  So every seed runs
the same mix of job sizes, and the medians and rates a run reports do not
depend on which seed was drawn.

Every round of converge-sum, and the first round of compare-baselines,
holds the grid's widest cell: gupta p = 1, k = 8 at the largest N, and for
compare also alzer-koumandos at the largest mu, whose enclosure widens
geometrically with N when mu > 1.  So ``enclosure_bits_max`` compares the
same worst case on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("verify-deep", "converge-sum", "compare-baselines")

# Rounds drawn ahead of a run; more than any run of at most a minute reaches.
ROUNDS = 40

VERIFY_POWERS = {"1-6": (1, 2, 3, 4, 5, 6), "1,3,5": (1, 3, 5), "2,4,6": (2, 4, 6)}
# (power set, centre of K) for K in 96..200; a job costs about |S| K^2.6:
# 0.4 s, three of 0.85 s and 2 s on the reference machine.  The seed moves
# K up to VERIFY_JITTER either way.
VERIFY_SHAPES = (
    ("2,4,6", 100),
    ("1-6", 106),
    ("1,3,5", 142),
    ("2,4,6", 138),
    ("1,3,5", 197),
)
VERIFY_JITTER = 3

SUM_PREC = 128
# (p choices, k, centre of N) for N in 2e4..1e5, k = None for the classical
# series: 0.3 s, three of 0.85 s and 2.3 s.  The seed moves N up to
# SUM_JITTER either way, except for the anchor.
SUM_SHAPES = (
    ((2, 4, 6), None, 28_000),
    ((3,), 2, 68_000),
    ((5,), 3, 50_000),
    ((6,), 5, 41_000),
    ((1,), 8, 100_000),
)
SUM_JITTER = 0.03

COMPARE_TERMS = (100, 1000, 10000)
COMPARE_PREC = 1024
# The three pi^2 baselines cost the same; each middle job sums two of them.
PI2_BASELINES = ("kolbig", "alzer-h", "alzer-H")
# gupta k next to k = 0 in the cheap job
COMPARE_K = (1, 2)
# alzer-koumandos parameter mu = a / b with a, b drawn from this range
AK_MU = (1, 5)


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what the output checks need to know about it."""

    argv: tuple[str, ...]
    command: str  # numbers | verify | sum | compare
    fmt: str
    prec: int = 0
    powers: tuple[int, ...] = ()
    k_max: int = 0
    series: tuple[str, ...] = ()  # series_id of every selector, in order
    target_p: int = 0
    terms: tuple[int, ...] = ()

    @property
    def items(self) -> int:
        """Identities checked (verify) or series terms summed (sum, compare)."""
        if self.command == "verify":
            return len(self.powers) * (self.k_max + 1)
        return sum(self.terms) * len(self.series)


def verify_job(powers: str, k_max: int, fmt: str) -> Job:
    argv = ("verify", "--powers", powers, "--k-max", str(k_max), "--format", fmt)
    return Job(argv, "verify", fmt, powers=VERIFY_POWERS[powers], k_max=k_max)


def sum_job(series: str, terms: int, prec: int, fmt: str, workers: int) -> Job:
    argv = ("sum", "--series", series, "--terms", str(terms), "--prec", str(prec))
    argv += ("--workers", str(workers), "--format", fmt)
    return Job(
        argv,
        "sum",
        fmt,
        prec=prec,
        series=(canonical_id(series, None),),
        target_p=series_power(series, None),
        terms=(terms,),
    )


def compare_job(target: str, series: list[str], terms: tuple[int, ...], prec: int, fmt: str) -> Job:
    p = 1 if target == "pi" else int(target[2:])
    argv = ("compare", "--target", target, "--series", ",".join(series))
    argv += ("--terms", ",".join(map(str, terms)), "--prec", str(prec), "--format", fmt)
    return Job(
        argv,
        "compare",
        fmt,
        prec=prec,
        series=tuple(canonical_id(s, p) for s in series),
        target_p=p,
        terms=terms,
    )


def numbers_job(kind: str, max_index: int, fmt: str = "csv") -> Job:
    argv = ("numbers", "--kind", kind, "--max-index", str(max_index), "--format", fmt)
    return Job(argv, "numbers", fmt)


def series_power(text: str, default_p: int | None) -> int:
    name, _, args = text.partition(":")
    if name in ("alzer-h", "alzer-H", "kolbig"):
        return 2
    if name == "alzer-koumandos":
        return 1
    fields = dict(item.split("=") for item in args.split(",") if item)
    return int(fields["p"]) if "p" in fields else default_p


def canonical_id(text: str, default_p: int | None) -> str:
    """The series_id the CLI prints for a selector."""
    name, _, args = text.partition(":")
    fields = dict(item.split("=") for item in args.split(",") if item)
    if name == "gupta":
        return f"gupta:p={series_power(text, default_p)},k={fields['k']}"
    if name == "classical":
        return f"classical:p={series_power(text, default_p)}"
    if name == "alzer-koumandos":
        return f"alzer-koumandos:mu={Fraction(fields['mu'])}"
    return name


def _verify_round(rng: random.Random) -> list[Job]:
    jobs = []
    for powers, centre in VERIFY_SHAPES:
        k_max = min(200, centre + rng.randint(-VERIFY_JITTER, VERIFY_JITTER))
        jobs.append(verify_job(powers, k_max, rng.choice(("csv", "json"))))
    rng.shuffle(jobs)
    return jobs


def _sum_round(rng: random.Random) -> list[Job]:
    jobs = []
    for ps, k, centre in SUM_SHAPES:
        p = rng.choice(ps)
        series = f"classical:p={p}" if k is None else f"gupta:p={p},k={k}"
        n = centre
        if centre < 100_000:
            n = round(centre * (1 + SUM_JITTER * (2 * rng.random() - 1)))
        jobs.append(sum_job(series, n, SUM_PREC, "pretty", 2))
    rng.shuffle(jobs)
    return jobs


def _compare_round(rng: random.Random, anchor: bool) -> list[Job]:
    a, b, c = rng.sample(PI2_BASELINES, 3)
    mu = Fraction(AK_MU[1]) if anchor else Fraction(rng.randint(*AK_MU), rng.randint(*AK_MU))
    shapes = [
        ("pi2", ["gupta:k=0", f"gupta:k={rng.choice(COMPARE_K)}"]),
        ("pi2", [a, b]),
        ("pi2", [b, c]),
        ("pi2", [c, a]),
        ("pi", ["gupta:k=8", "classical:p=1", f"alzer-koumandos:mu={mu}"]),
    ]
    jobs = []
    for i, (target, series) in enumerate(shapes):
        rng.shuffle(series)
        fmt = "csv" if anchor and i == len(shapes) - 1 else rng.choice(("csv", "pretty"))
        jobs.append(compare_job(target, series, COMPARE_TERMS, COMPARE_PREC, fmt))
    rng.shuffle(jobs)
    return jobs


def job_rounds(workload: str, seed: int) -> list[list[Job]]:
    """The workload's rounds of jobs, in the order a run executes them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-deep":
        return [_verify_round(rng) for _ in range(ROUNDS)]
    if workload == "converge-sum":
        return [_sum_round(rng) for _ in range(ROUNDS)]
    if workload == "compare-baselines":
        return [_compare_round(rng, r == 0) for r in range(ROUNDS)]
    raise ValueError(f"unknown workload {workload!r}")


def setup_jobs(workload: str, rounds: list[list[Job]]) -> list[Job]:
    """The workload's one-off preparation, run in a fresh cache directory.

    verify-deep builds the Euler and Bernoulli tables as deep as its jobs
    need; the other two pay for interpreter start, import and pi at their
    precision with one minimal job.
    """
    if workload == "verify-deep":
        k_max = max(job.k_max for jobs in rounds for job in jobs)
        # deepest orders the reduction touches: p = 5 (Euler), p = 6 (Bernoulli)
        return [numbers_job("euler", 2 * (k_max + 2)), numbers_job("bernoulli", 2 * (k_max + 3))]
    prec = SUM_PREC if workload == "converge-sum" else COMPARE_PREC
    return [sum_job("classical:p=1", 1, prec, "csv", 1)]


# One small job per subcommand and series kind, so the traced run sees every
# layer of the package on every workload.  Run in a fresh cache directory:
# the first verify builds and saves the tables, the later calls load them.
PROBE = (
    verify_job("1-6", 12, "csv"),
    verify_job("2,4,6", 10, "json"),
    numbers_job("bernoulli", 24, "pretty"),
    sum_job("gupta:p=3,k=2", 400, SUM_PREC, "pretty", 1),
    sum_job("classical:p=2", 400, SUM_PREC, "csv", 2),
    compare_job("pi2", ["gupta:k=1", "kolbig", "alzer-h", "alzer-H"], (10, 100), COMPARE_PREC, "pretty"),
    compare_job("pi", ["gupta:k=1", "classical:p=1", "alzer-koumandos:mu=1/2"], (10, 100), COMPARE_PREC, "csv"),
)
