"""Command-line front end: verification reports and convergence tables.

Exit codes: 0 on success, 1 when an exact identity check fails (a genuine
mathematical or implementation discrepancy), 2 on usage errors and on a
report that cannot be written.  Output is deterministic: identical
invocations produce byte-identical reports.  The ``--workers`` option is
accepted for compatibility and ignored; everything runs in one thread.

Euler and Bernoulli tables are rebuilt in memory by every run, and nothing
is read from or written to disk.  ``numbers`` prints their (index,
numerator, denominator) rows itself, with B_1 = -1/2, which no table holds;
every other report is rendered by :mod:`piforge.report`.

A run loads only what its subcommand calls: this module imports
``special_numbers`` (whose ``MAX_INDEX`` bounds every input), and each
``_cmd_*`` the modules it calls.  ``_GRAMMAR`` holds every subcommand and
option once.  ``_parse`` reads from it the one shape of a well-formed job,
and argparse, built from it too, is imported only for anything else (--help,
abbreviations, --option=value, errors).  ``run``, the process entry, freezes
the heap once ``main`` returns, so interpreter shutdown does not walk objects
that die with the process anyway.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import namedtuple
from importlib import import_module
from types import SimpleNamespace

from .special_numbers import MAX_INDEX, TableStore, required_table_k

__all__ = ["main", "run"]

FORMATS = ("csv", "json", "pretty")
MAX_PREC = 1 << 20
MAX_TERMS = 1 << 62  # the summation kernel counts terms in a C ssize_t
BASELINE_TERMS = 10**7  # a baseline sums every term: seconds at 10^7, years at 2^62
WORKERS_HELP = "accepted for compatibility and ignored"


def _number(text: str, where: str) -> int:
    """int(text), or a ValueError naming the option or selector it came from."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: cannot read {text.strip()!r} as int") from None


def _check_terms(counts: list[int], selectors: list[SeriesSelector]) -> None:
    if not counts or not 1 <= min(counts) <= max(counts) <= MAX_TERMS:
        raise ValueError(f"--terms needs counts from 1 to {MAX_TERMS}")
    for sel in selectors:
        if SERIES[sel.kind].module == "prior_series" and max(counts) > BASELINE_TERMS:
            raise ValueError(f"series {sel.series_id} allows --terms up to {BASELINE_TERMS}")


def _parse_powers(text: str) -> list[int]:
    spans = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        first, sep, last = token.partition("-")
        lo = _number(first, f"--powers {token!r}")
        hi = _number(last, f"--powers {token!r}") if sep else lo
        if lo <= hi:  # an empty range adds no power
            spans.append((lo, hi))
    if not spans:
        raise ValueError(f"powers must name at least one power, got {text!r}")
    # the endpoints are checked before any range is built, so a huge range
    # is rejected at once
    if any(lo < 1 or hi > 6 for lo, hi in spans):
        raise ValueError(f"powers must come from 1..6, got {text!r}")
    return sorted({p for lo, hi in spans for p in range(lo, hi + 1)})


def _parse_target(text: str) -> int:
    name = text.strip().lower()
    power = "1" if name == "pi" else name[2:].removeprefix("^")
    try:  # a power past int()'s digit limit names no power of 1..6
        p = int(power) if name.startswith("pi") and power.isdecimal() else 0
    except ValueError:
        p = 0
    if 1 <= p <= 6:
        return p
    raise ValueError(f"target must be pi, pi^2, ..., pi^6, got {text!r}")


def _target_name(p: int) -> str:
    return "pi" if p == 1 else f"pi^{p}"


# kind is a key of SERIES, mu the reduced pair prior_series.read_mu reads, or None
class SeriesSelector(namedtuple("SeriesSelector", "kind p k mu", defaults=(0, None))):
    __slots__ = ()

    @property
    def series_id(self) -> str:
        if self.mu:  # its series' one key, printed as str(Fraction) prints it
            num, den = self.mu
            return f"{self.kind}:mu={num}" + (f"/{den}" if den > 1 else "")
        args = ",".join(f"{key}={getattr(self, key)}" for key in SERIES[self.kind].keys)
        return f"{self.kind}:{args}" if args else self.kind


# keys: the keys its selector takes; p: the power of pi it targets, None for
# the selector's p; module: the piforge module that sums it;
# evaluate(module, selector, Ns, ctx): the partial sums of N terms for each N
# of a list, in its order
Series = namedtuple("Series", "keys p module evaluate")


def _family_partials(m, s, Ns, ctx):
    return [m.partial_sum(s.p, s.k, n, ctx) for n in Ns]


# The evaluators look their functions up in the summing module at call time,
# so wrappers installed there see every call: the benchmark's tracer replaces
# a function by identity in every piforge namespace, its home module included.
# `gupta` and `classical` share one evaluator: a classical selector has k = 0.
# The four baselines make one pass to the largest N; the gupta family picks
# its working precision from N, so it sums each N on its own.
SERIES = {
    "gupta": Series(("p", "k"), None, "gupta_series", _family_partials),
    "classical": Series(("p",), None, "gupta_series", _family_partials),
    "alzer-h": Series((), 2, "prior_series", lambda m, s, Ns, ctx: m.alzer_h_partials(Ns, ctx)),
    "alzer-H": Series((), 2, "prior_series", lambda m, s, Ns, ctx: m.alzer_H_partials(Ns, ctx)),
    "kolbig": Series((), 2, "prior_series", lambda m, s, Ns, ctx: m.kolbig_partials(Ns, ctx)),
    "alzer-koumandos": Series(
        ("mu",), 1, "prior_series", lambda m, s, Ns, ctx: m.alzer_koumandos_partials(s.mu, Ns, ctx)
    ),
}
SERIES_HELP = " | ".join(
    f"{name}:" + ",".join(f"{key}=.." for key in row.keys) if row.keys else name
    for name, row in SERIES.items()
)


def _parse_series(text: str, default_p: int | None = None) -> SeriesSelector:
    name, _, argtext = text.strip().partition(":")
    if name not in SERIES:
        raise ValueError(f"unknown series {name!r}")
    series = SERIES[name]
    where = f"series {text!r}"
    args: dict[str, str] = {}
    for item in argtext.split(",") if argtext else ():
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"bad series argument {item!r} in {text!r}")
        if key not in series.keys:
            allowed = ", ".join(series.keys) or "none"
            raise ValueError(f"{where} has unknown key {key!r} (allowed: {allowed})")
        if key in args:
            raise ValueError(f"{where} repeats key {key!r}")
        args[key] = value.strip()
    for key in series.keys:
        if key not in args and (key != "p" or default_p is None):
            raise ValueError(f"{where} needs {key}=<value>")
    p = series.p or (_number(args["p"], f"{where} p") if "p" in args else default_p)
    k = _number(args.get("k", "0"), f"{where} k")
    mu = args.get("mu")
    if mu is not None:  # read beside the mu-family, which this selector loads anyway
        mu = import_module(f"{__package__}.prior_series").read_mu(mu, where)
    if not 1 <= p <= 6:
        raise ValueError(f"{where} needs p in 1..6")
    k_max = MAX_INDEX // 2 - required_table_k(p, 0)
    if not 0 <= k <= k_max:
        raise ValueError(f"{where} needs k in 0..{k_max} for p={p}")
    return SeriesSelector(name, p, k, mu)


def _partials(sel: SeriesSelector, Ns: list[int], ctx) -> list:
    series = SERIES[sel.kind]
    return series.evaluate(import_module(f"{__package__}.{series.module}"), sel, Ns, ctx)


def _context(prec: int):
    if prec < 64:
        raise ValueError(f"--prec needs at least 64 bits, got {prec}")
    # a 3-term kolbig sum at 2^20 bits still finishes, in minutes; far larger
    # precisions exhaust time and memory
    if prec > MAX_PREC:
        raise ValueError(f"--prec allows at most {MAX_PREC} bits, got {prec}")
    from .numeric_engine import PrecisionContext

    return PrecisionContext(prec)


def _value_row(sel: SeriesSelector, terms: int, value, target, fmt: str):
    """One report row for ``value``, with its residual against ``target``,
    the enclosure of pi^p."""
    from . import report

    one = 1 << value.ctx.scale  # value and target share their context
    residual = report.render_signed(value.lo_m + value.hi_m - target.lo_m - target.hi_m, 2 * one)
    digits, width = report.decimal_digits(value.ctx.precision_bits), None
    if fmt == "pretty":
        digits = report.distinguishing_digits(value, digits)
        width = report.render_bound(value.hi_m - value.lo_m, one, 3, "ceiling")
    lo = report.render_bound(value.lo_m, one, digits, "floor")
    hi = report.render_bound(value.hi_m, one, digits, "ceiling")
    return report.ReportRow(
        sel.series_id, sel.p, sel.k, terms, lo, hi, _target_name(sel.p), residual, None, width
    )


# -- subcommands ---------------------------------------------------------------


def _cmd_numbers(args) -> tuple[str, int]:
    if args.max_index < 0 or args.max_index % 2 != 0:
        raise ValueError("--max-index must be even and >= 0")
    if args.max_index > MAX_INDEX:
        raise ValueError(f"--max-index allows at most {MAX_INDEX}, got {args.max_index}")
    K = args.max_index // 2
    euler = args.kind == "euler"
    table = TableStore().euler(K) if euler else TableStore().bernoulli(K)
    # (index, numerator, denominator) in index order, B_1 = -1/2 between B_0
    # and B_2; an Euler number is an int, a Bernoulli number a reduced pair
    rows = [(2 * k, *((v, 1) if euler else v)) for k, v in enumerate(table.values)]
    if not euler and K:
        rows.insert(1, (1, -1, 2))
    if args.format == "pretty":
        letter = "E" if euler else "B"
        lines = [f"{letter}_{i} = {num}" + (f"/{den}" if den != 1 else "") for i, num, den in rows]
    else:
        cells = [tuple(map(str, row)) for row in rows]
        if args.format == "csv":
            lines = ["index,numerator,denominator", *map(",".join, cells)]
        else:  # json.dumps(cells, indent=2); no cell needs escaping
            arrays = ('  [\n    "' + '",\n    "'.join(c) + '"\n  ]' for c in cells)
            lines = ["[", ",\n".join(arrays), "]"]
    return "\n".join(lines) + "\n", 0


def _cmd_verify(args) -> tuple[str, int]:
    from .exact_verifier import verify_grid
    from .report import ReportRow, render_report, render_signed

    powers = _parse_powers(args.powers)
    if args.k_max < 0:
        raise ValueError("--k-max must be >= 0")
    allowed = MAX_INDEX // 2 - max(required_table_k(p, 0) for p in powers)
    if args.k_max > allowed:
        raise ValueError(
            f"--k-max {args.k_max} is too deep: --powers {args.powers} allow at "
            f"most {allowed} under the table hard cap of index {MAX_INDEX}"
        )
    checks = verify_grid(powers, args.k_max)
    rows = []
    for check in checks:
        num, den = check.ratio
        shown = "1" if check.holds else render_signed(num, den, 30)
        residual = "0" if check.holds else render_signed(num - den, den, 12)
        row = (f"gupta:p={check.p},k={check.k}", check.p, check.k, 0, shown, shown, "1")
        rows.append(ReportRow(*row, residual, check.holds))
    return render_report(rows, args.format), 0 if all(check.holds for check in checks) else 1


def _cmd_sum(args) -> tuple[str, int]:
    from .report import render_report

    sel = _parse_series(args.series)
    ctx = _context(args.prec)
    _check_terms([args.terms], [sel])
    [value] = _partials(sel, [args.terms], ctx)
    rows = [_value_row(sel, args.terms, value, ctx.pi_power(sel.p), args.format)]
    return render_report(rows, args.format), 0


def _cmd_compare(args) -> tuple[str, int]:
    from .report import align_table, render_report

    target_p = _parse_target(args.target)
    selector_texts = [s for s in args.series.split(",") if s.strip()]
    # series arguments may themselves contain commas (gupta:p=2,k=1), so
    # re-join fragments that are continuations of the previous selector
    merged: list[str] = []
    for fragment in selector_texts:
        if "=" in fragment and ":" not in fragment and merged:
            merged[-1] += "," + fragment
        else:
            merged.append(fragment)
    if not merged:
        raise ValueError("at least one series is required")
    selectors = [_parse_series(text, default_p=target_p) for text in merged]
    for sel in selectors:
        if sel.p != target_p:
            raise ValueError(
                f"series {sel.series_id} targets {_target_name(sel.p)}, "
                f"not {_target_name(target_p)}"
            )
    terms_list = [_number(t, "--terms") for t in args.terms.split(",") if t.strip()]
    _check_terms(terms_list, selectors)
    ctx = _context(args.prec)
    ids = {sel.series_id: sel for sel in selectors}  # a repeated selector is summed once
    columns = {}
    if {"alzer-h", "alzer-H"} <= ids.keys():  # one pass of mu_k sums both
        pair = import_module(f"{__package__}.prior_series").alzer_pair_partials(terms_list, ctx)
        columns = dict(zip(("alzer-h", "alzer-H"), pair))
    columns = {key: columns.get(key) or _partials(sel, terms_list, ctx) for key, sel in ids.items()}
    target = ctx.pi_power(target_p)
    # one line of rows per N, one row per series
    lines = [
        [_value_row(sel, N, value, target, args.format) for sel, value in zip(selectors, values)]
        for N, values in zip(terms_list, zip(*(columns[sel.series_id] for sel in selectors)))
    ]
    if args.format == "pretty":
        table = [["N"] + [sel.series_id for sel in selectors]]
        table += [[str(N)] + [row.residual for row in line] for N, line in zip(terms_list, lines)]
        return align_table(table), 0
    return render_report([row for line in lines for row in line], args.format), 0


# subcommand: (handler, help, {flag: (int, str or a tuple of choices, default,
# help)}), the options in the order --help lists them; a default of None
# marks a required option
_FORMAT, _WORKERS = (FORMATS, "pretty", None), (int, 1, WORKERS_HELP)
_GRAMMAR = {
    "numbers": (_cmd_numbers, "print Euler or Bernoulli tables", {
        "--kind": (("euler", "bernoulli"), None, None),
        "--max-index": (int, None, None),
        "--format": _FORMAT,
    }),
    "verify": (_cmd_verify, "exact identity checks over a (p, k) grid", {
        "--powers": (str, "1-6", "e.g. 1,3,5 or 1-6"),
        "--k-max": (int, 64, None),
        "--format": _FORMAT,
        "--workers": _WORKERS,
    }),
    "sum": (_cmd_sum, "certified partial sum of one series", {
        "--series": (str, None, SERIES_HELP),
        "--terms": (int, None, None),
        "--prec": (int, 128, "precision bits"),
        "--format": _FORMAT,
        "--workers": _WORKERS,
    }),
    "compare": (_cmd_compare, "residual table for several series sharing one target", {
        "--target": (str, None, "pi, pi^2, ..., pi^6"),
        "--series": (str, None, "comma-separated selectors"),
        "--terms": (str, None, "comma-separated term counts"),
        "--prec": (int, 128, None),
        "--format": _FORMAT,
        "--workers": _WORKERS,
    }),
}


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """argparse's namespace for an argv of a subcommand and then distinct
    spelled-out ``--option value`` pairs, each value without a leading "-"
    and read by int() or among the choices, every required option given;
    None for any other argv, which argparse then parses or refuses."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    func, _, options = _GRAMMAR[argv[0]]
    pairs = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(pairs) + 1 != len(argv) or not pairs.keys() <= options.keys():
        return None  # a flag without a value, a repeated flag or an unknown one
    args = {"command": argv[0], "func": func}
    for flag, (kind, default, _) in options.items():
        value = pairs.get(flag, default)
        if flag in pairs:
            if value.startswith("-") or isinstance(kind, tuple) and value not in kind:
                return None
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
        elif value is None:
            return None  # a required option left out
        args[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(**args)


def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def print_help(self, file=None):  # argparse's own swallows an OSError
            (file or sys.stdout).write(self.format_help())

    parser = _Parser(
        prog="piforge",
        description="Exact identity verification and certified convergence "
        "measurement for series representations of powers of pi.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in _GRAMMAR.items():
        command = sub.add_parser(name, help=summary)
        for flag, (kind, default, help_text) in options.items():
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            given = {"required": True} if default is None else {"default": default}
            command.add_argument(flag, **typed, **given, help=help_text)
        command.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:  # argparse writes --help here
        args = _parse(argv) or _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    except OSError as exc:
        return _unwritten(exc)
    try:
        report, code = args.func(args)
    except (ValueError, LookupError) as exc:
        return _error(exc)
    try:
        sys.stdout.write(report)
    except OSError as exc:
        return _unwritten(exc)
    return code


def _error(message: object) -> int:
    sys.stderr.write(f"piforge: error: {message}\n")
    return 2


def _unwritten(exc: OSError) -> int:
    return _error(f"cannot write the report: {exc.strerror or exc}")


def run() -> int:
    """``main()`` on ``sys.argv``, a flush of stdout, then ``gc.freeze()``:
    the process entry of ``python -m piforge.cli`` and the ``piforge``
    script.  ``main`` never freezes, as tests and the benchmark call it many
    times in one process.  A failed flush exits 2 with one error line, unless
    ``main`` returned 2 and so has written it, and sends the unwritten bytes
    to the null device, so the interpreter's shutdown flush stays quiet."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code != 2:
            code = _unwritten(exc)
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
