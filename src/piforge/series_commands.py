"""The ``sum`` and ``compare`` subcommands: certified partial sums of the
series that ``SERIES`` names, as report rows against pi^p.

:mod:`piforge.cli` imports this module only to run one of these two, or to
build argparse's help, whose ``--series`` line is ``SERIES_HELP``; a
``numbers`` or ``verify`` run compiles none of it.  Each handler in
``COMMANDS`` takes the parsed options and returns the report and the exit
code, and imports the modules it calls when it runs.
"""

from __future__ import annotations

from collections import namedtuple
from importlib import import_module

__all__ = ["COMMANDS", "SERIES", "SERIES_HELP"]

MAX_PREC = 1 << 20
MAX_TERMS = 1 << 62  # the summation kernel counts terms in a C ssize_t
BASELINE_TERMS = 10**7  # a baseline sums every term: seconds at 10^7, years at 2^62


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
    from .special_numbers import MAX_INDEX, required_table_k

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


COMMANDS = {"sum": _cmd_sum, "compare": _cmd_compare}
