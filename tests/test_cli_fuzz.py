"""Property test of the CLI's input grammar: whatever argv holds, ``main``
returns 0, 1 or 2, lets no exception escape, returns 1 only from ``verify``,
says what was wrong in one located ``piforge: error:`` line (or in
argparse's usage error) whenever it returns 2, and prints the same bytes
when a run that returned 0 is repeated.  The same argvs, and near misses,
go to the fast parser, which must return argparse's namespace or decline.

The grammar covers every subcommand, option, format and series kind, with
missing, repeated, unknown and empty selector keys, commas inside and between
selectors, ``--powers`` ranges, and numbers in decimal, fraction, exponent,
signed, padded, non-ASCII-digit and huge forms.  A valid input is kept cheap
(``--prec`` <= 4096, ``--k-max`` and gupta orders <= 64, ``--terms`` <= 10^3);
a huge one is past its option's bound, so it must be refused, not run.  The
gupta and classical selectors of ``sum`` also draw ``--terms`` from past the
direct limit of ``gupta_series`` (10^7) up to 2^62, where a row costs what a
thousand terms do.  Between the two, a row the tail path leaves to the
term-by-term walk costs time linear in N, and the baselines, whose
recurrences stay linear in N, keep ``--terms`` <= 10^3 everywhere.

All examples run in one child process, under an address-space limit and a
per-example alarm, so a hang or a runaway allocation fails one example
instead of the test session.  Run ``python tests/test_cli_fuzz.py 50`` with
``src`` on ``PYTHONPATH`` for a longer, randomised search: 50 examples at
each site.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from piforge.cli import _build_parser, _parse
from piforge.gupta_series import DIRECT_LIMIT

PER_SITE = 3  # 417 examples, about 5.5 s in one child process (CPython 3.11.7, 2 cores)
ALARM_S = 5  # the costliest cheap input runs in about 0.4 s
ADDRESS_SPACE = 1 << 30
# An error message names the option or the input it rejects.
LOCATORS = ("--", "series", "powers", "target")


def forms(value: int) -> st.SearchStrategy[str]:
    """Texts that int() reads as ``value``: plain, signed, padded, in
    non-ASCII digits, or with a digit-group underscore."""
    text = str(abs(value))
    sign = "-" if value < 0 else ""
    arabic = text.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    grouped = text[0] + "_" + text[1:] if len(text) > 1 else text
    signed = sign + text if sign else "+" + text
    return st.sampled_from([sign + text, signed, f" {sign}{text} ", sign + arabic, sign + grouped])


JUNK = st.sampled_from(["", " ", "x", "1-", "nan", "inf", "1e99999999999", "٣/٠", ",", "0x10"])

# Each input below is a pair (good, bads): one strategy for texts that are
# good and cheap to run, and a tuple of strategies, one per way to get it
# wrong.  Every way is a site of its own in SITES.


def integer(cheap: tuple[int, int], bound: int):
    """An integer: good in the cheap range; bad past ``bound``, below the
    cheap range, as a fraction, exponent or decimal, or not a number."""
    good = st.integers(*cheap)
    return st.one_of(good.map(str), good.flatmap(forms)), (
        st.integers(bound + 1, 10**40).flatmap(forms),
        st.integers(-(10**30), cheap[0] - 1).flatmap(forms),
        st.builds("{}{}".format, good, st.sampled_from(["/1", "e0", ".0", "/0"])),
        JUNK,
    )


def choice(good: list[str], bad: list[str]):
    """One of the ``good`` texts; each ``bad`` text a way of its own."""
    return st.sampled_from(good), tuple(map(st.just, bad))


MU = (
    st.one_of(
        st.integers(1, 10**6).flatmap(forms),
        st.builds("{}/{}".format, st.integers(1, 10**6), st.integers(1, 10**6)),
        st.builds("{}e{}".format, st.sampled_from(["1", "2.5", "7"]), st.integers(-40, 40)),
    ),
    (
        st.integers(-(10**6), 0).flatmap(forms),
        st.builds("{}/{}".format, st.integers(-50, 50), st.integers(-3, 0)),
        # just past the 4,300-digit bound, and far past it
        st.builds("{}e{}".format, st.sampled_from(["1", "2.5", "9.99"]), st.integers(4300, 4306)),
        st.builds("{}e{}".format, st.sampled_from(["1", "-2.5", "7/2"]),
                  st.one_of(st.integers(4400, 10**12), st.integers(-(10**12), -4400))),
        JUNK,
    ),
)
KEYS = {"p": integer((1, 6), 6), "k": integer((0, 64), 256), "mu": MU}
KIND_KEYS = {"gupta": ("p", "k"), "classical": ("p",), "alzer-h": (), "alzer-H": (), "kolbig": (),
             "alzer-koumandos": ("mu",)}
# the kinds that target each power of pi
BASELINES = {1: ["alzer-koumandos"], 2: ["alzer-h", "alzer-H", "kolbig"]}
TARGET_KINDS = {p: ["gupta", "classical", *BASELINES.get(p, [])] for p in range(1, 7)}
# an unknown kind, missing, repeated, unknown, empty or malformed keys, or a
# bad value of one key
SELECTOR_FAULTS = ["kind", "keys"] + [
    (key, i) for key, (_, bads) in KEYS.items() for i in range(len(bads))
]


@st.composite
def selector(draw, p: int | None = None, fault=None) -> str:
    """A selector with good values for its kind's keys, of a kind that
    targets pi^p when p is given (compare may then leave p out), with
    ``fault`` if one is given."""
    kinds = TARGET_KINDS[p] if p else list(KIND_KEYS)
    if isinstance(fault, tuple):  # a kind that has the faulty key
        kinds = [kind for kind in kinds if fault[0] in KIND_KEYS[kind]]
    kind = draw(st.sampled_from(kinds))
    keys = [key for key in KIND_KEYS[kind] if not (p and key == "p" and draw(st.booleans()))]
    if fault == "kind":
        kind = draw(st.sampled_from(["", "gupt", "GUPTA", "pi", "alzer_h"]))
    elif fault == "keys":
        keys = draw(st.lists(st.sampled_from([*KEYS, "", "x", " p", "k ", "p=1=2"]), max_size=4))
    elif fault:
        keys = [*keys, fault[0]] if fault[0] not in keys else keys
    items = []
    for key in keys:
        name = key.strip()
        if name not in KEYS:
            items.append(draw(st.sampled_from([key, f"{key}=", f"{key}=1"])))
        elif isinstance(fault, tuple) and name == fault[0]:
            items.append(f"{key}={draw(KEYS[name][1][fault[1]])}")
        else:
            items.append(f"{key}={p if p and name == 'p' else draw(KEYS[name][0])}")
    return f"{kind}:{','.join(items)}" if items or draw(st.booleans()) else kind


@st.composite
def comma_list(draw, good: st.SearchStrategy[str], bad: st.SearchStrategy[str] | None = None):
    """Good items joined by commas, with one ``bad`` item among them if given."""
    items = draw(st.lists(good, min_size=1, max_size=3))
    if bad is not None:
        items.insert(draw(st.integers(0, len(items))), draw(bad))
    return ",".join(items)


def lists(good: st.SearchStrategy[str], bads: tuple) -> tuple:
    extra = st.sampled_from(["", " ", ",", "x"])  # empty or stray items
    return comma_list(good), tuple(comma_list(good, bad) for bad in (*bads, extra))


END = integer((1, 6), 6)
# a power, or a range of powers, empty when reversed; a bad power, or a
# range with a bad start or a bad end
POWERS = lists(
    st.one_of(END[0], st.builds("{}-{}".format, END[0], END[0])),
    tuple(shape for bad in END[1] for shape in
          (bad, st.builds("{}-{}".format, END[0], bad), st.builds("{}-{}".format, bad, END[0]))),
)
FORMAT = choice(["csv", "json", "pretty"], ["xml", "", "CSV"])
WORKERS = integer((0, 4), 4)
PREC = integer((64, 4096), 1 << 20)
TERMS = integer((1, 1000), 1 << 62)
# cheap for the gupta and classical rows of sum, past the direct limit
FAR_TERMS = st.one_of(TERMS[0], st.integers(DIRECT_LIMIT + 1, 1 << 62).flatmap(forms))
# even indices are good; an odd one is refused like an out-of-range one
MAX_INDEX = (st.integers(0, 256).map(lambda i: str(2 * i)),
             (*integer((0, 512), 512)[1], st.integers(0, 256).map(lambda i: str(2 * i + 1))))


def options(command: str, target: int) -> dict:
    """{flag: (good, bads)} for each option of ``command``; compare's
    selectors target pi^target."""
    return {
        "numbers": {"--kind": choice(["euler", "bernoulli"], ["Euler", "", "zeta"]),
                    "--max-index": MAX_INDEX, "--format": FORMAT},
        "verify": {"--powers": POWERS, "--k-max": integer((0, 64), 253), "--format": FORMAT,
                   "--workers": WORKERS},
        "sum": {"--series": (selector(), tuple(selector(fault=f) for f in SELECTOR_FAULTS)),
                "--terms": TERMS, "--prec": PREC, "--format": FORMAT, "--workers": WORKERS},
        "compare": {
            "--target": choice(
                [f"pi{target}", f"pi^{target}", f" PI^{target} "] + ["pi"] * (target == 1),
                ["pi^0", "pi7", "tau", "", "pi^-1", "pi²", "p^i2", "^pi^2", "pi^^2", "pi^"],
            ),
            "--series": lists(
                selector(target), tuple(selector(target, f) for f in SELECTOR_FAULTS)
            ),
            "--terms": lists(TERMS[0], TERMS[1]),
            "--prec": PREC, "--format": FORMAT, "--workers": WORKERS,
        },
    }.get(command, {})


# Where an argv goes wrong; the fuzz runs the same number of examples at
# each: (command, None, None) for nowhere (twice per command), (command, flag,
# i) for the i-th way to get the flag's value wrong, (command, flag, None) for
# the flag left out, (command, "+flag", None) for an unknown flag, and
# unknown commands.
COMMANDS = ("numbers", "verify", "sum", "compare")
SITES = [
    *((command, site, None) for command in COMMANDS for site in (None, None, "+flag")),
    *((command, flag, i) for command in COMMANDS
      for flag, (_, bads) in options(command, 1).items() for i in (None, *range(len(bads)))),
    ("prove", None, None),
    ("", None, None),
]


@st.composite
def argvs(draw, command: str, site: str | None, way: int | None) -> list[str]:
    series_fault = site == "--series" and way in range(len(SELECTOR_FAULTS))
    fault = SELECTOR_FAULTS[way] if series_fault else None
    # a bad mu needs a kind that targets pi
    target = 1 if isinstance(fault, tuple) and fault[0] == "mu" else draw(st.integers(1, 6))
    argv = [command]
    for flag, (good, bads) in options(command, target).items():
        if flag == "--terms" and "--series" in argv and command == "sum":
            if argv[argv.index("--series") + 1].startswith(("gupta", "classical")):
                good = FAR_TERMS
        if flag != site:
            argv += [flag, draw(good)]
        elif way is not None:
            argv += [flag, draw(bads[way])]
    if site == "+flag":
        flag = draw(st.sampled_from(["--nope", "-x", "--", "--format"]))
        argv.insert(draw(st.integers(1, len(argv))), flag)
    return argv


def run_main(argv: list[str]) -> tuple[int, str, str]:
    from piforge.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_run(argv: list[str]) -> None:
    code, stdout, stderr = run_main(argv)
    assert code in (0, 1, 2), (code, stderr)
    if code == 0:
        assert stdout and not stderr
        assert run_main(argv) == (0, stdout, ""), "a repeated run printed other bytes"
    elif code == 1:
        assert argv[0] == "verify" and stdout and not stderr
    elif stderr.startswith("usage: "):  # argparse's usage error
        assert not stdout and ": error: " in stderr.splitlines()[-1]
    else:
        assert not stdout and stderr.count("\n") == 1 and stderr.startswith("piforge: error: ")
        assert any(word in stderr for word in LOCATORS), stderr


def fuzz(per_site: int, derandomize: bool) -> None:
    """Runs ``check_run`` on ``per_site`` argvs at each site, in this
    process, each under an alarm, with the address space limited."""
    import resource
    import signal

    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, hard))

    def timed_out(signum, frame):
        raise TimeoutError(f"one run took more than {ALARM_S} s")

    signal.signal(signal.SIGALRM, timed_out)

    def runs(argv):
        signal.alarm(ALARM_S)
        try:
            check_run(argv)
        finally:
            signal.alarm(0)

    # no shrinking: each shrink step of a hang would wait for the alarm
    each = settings(max_examples=per_site, deadline=None, database=None,
                    derandomize=derandomize, phases=[Phase.generate],
                    suppress_health_check=list(HealthCheck))
    for site in SITES:
        each(given(argvs(*site))(runs))()


# argvs the fast path must decline: an option with "=", an abbreviation, a
# repeated option, -h, negative values, another subcommand's option, a
# required option left out, and nothing at all
NEAR_MISSES = [
    ["sum", "--series", "gupta:p=1,k=2", "--terms=5"],
    ["sum", "--series", "gupta:p=1,k=2", "--term", "5"],
    ["verify", "--k-max", "3", "--k-max", "4"],
    ["verify", "-h"],
    ["sum", "--series", "gupta:p=1,k=2", "--terms", "-5"],
    ["verify", "--powers", "-1-6"],
    ["numbers", "--kind", "euler", "--max-index", "4", "--terms", "5"],
    ["sum", "--terms", "5"],
    [],
]


def argparse_vars(argv: list[str]) -> dict | None:
    """vars() of argparse's namespace for ``argv``, None where it refuses."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


def check_parse(argv: list[str], well_formed: bool) -> None:
    fast = _parse(argv)
    assert fast is not None or not well_formed, argv
    if fast is not None:
        assert vars(fast) == argparse_vars(argv), argv


def test_fast_parse_is_argparse_or_declines():
    """``_parse`` returns exactly argparse's namespace, ``command`` included, or
    declines; on every argv of the grammar, and on near misses, which it must
    decline.  The argvs that go wrong nowhere it must accept."""
    assert not any(_parse(argv) for argv in NEAR_MISSES)
    each = settings(max_examples=PER_SITE, deadline=None, database=None, derandomize=True,
                    suppress_health_check=list(HealthCheck))
    for command, site, way in SITES:
        well_formed = site is None and command in COMMANDS
        each(given(argvs(command, site, way))(lambda argv: check_parse(argv, well_formed)))()


def test_cli_grammar_fuzz():
    pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, __file__, str(PER_SITE), "derandomize"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]


if __name__ == "__main__":
    fuzz(int(sys.argv[1]), derandomize=sys.argv[2:] == ["derandomize"])
