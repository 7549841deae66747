"""Command-line front end: verification reports and convergence tables.

Exit codes: 0 on success, 1 when an exact identity check fails (a genuine
mathematical or implementation discrepancy), 2 on usage errors.  Output is
deterministic: identical invocations produce byte-identical reports.  The
``--workers`` option is accepted for compatibility and ignored; everything
runs in one thread.

Euler and Bernoulli tables are rebuilt in memory by every run, and nothing
is read from or written to disk.  ``numbers`` prints their (index, value)
pairs itself; every other report is rendered by :mod:`piforge.report`.
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from fractions import Fraction

from .exact_verifier import required_table_k, verify_grid
from .gupta_series import partial_sum
from .numeric_engine import CertifiedReal, PrecisionContext
from .prior_series import (
    alzer_H_partials,
    alzer_h_partials,
    alzer_koumandos_partials,
    kolbig_partials,
)
from .report import (
    ReportRow,
    align_table,
    decimal_digits,
    distinguishing_digits,
    render_bound,
    render_interval,
    render_report,
    render_signed,
)
from .special_numbers import MAX_INDEX, TableStore

__all__ = ["main"]

FORMATS = ("csv", "json", "pretty")
MAX_PREC = 1 << 20
MAX_TERMS = 1 << 62  # the summation kernel counts terms in a C ssize_t
MU_DIGITS = 4300  # Python's default int-to-str limit; series ids print mu
WORKERS_HELP = "accepted for compatibility and ignored"


def _number(text: str, where: str, kind=int):
    """kind(text), or a ValueError naming the option or selector it came from."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"{where}: cannot read {text.strip()!r} as {kind.__name__}"
        ) from None


def _parse_mu(text: str, where: str) -> Fraction:
    """mu as a Fraction of at most MU_DIGITS digits above and below its bar,
    its exponent bounded before Fraction expands it into a power of ten."""
    mantissa, _, exponent = text.lower().partition("e")
    try:  # past this bound, no mantissa brings 10^exponent back into range
        too_far = abs(int(exponent)) > MU_DIGITS + len(mantissa)
    except ValueError:  # no exponent, or none int() reads: Fraction decides
        too_far = False
    if not too_far:
        mu = _number(text, where, Fraction)
        if max(abs(mu.numerator), mu.denominator) < 10**MU_DIGITS:
            return mu
    raise ValueError(f"{where} needs a numerator and denominator of at most {MU_DIGITS} digits")


def _check_terms(counts: list[int]) -> None:
    if not counts or not 1 <= min(counts) <= max(counts) <= MAX_TERMS:
        raise ValueError(f"--terms needs counts from 1 to {MAX_TERMS}")


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
    # the endpoints are checked before any range is built, so a huge range
    # is rejected at once
    if not spans or any(lo < 1 or hi > 6 for lo, hi in spans):
        raise ValueError(f"powers must come from 1..6, got {text!r}")
    return sorted({p for lo, hi in spans for p in range(lo, hi + 1)})


def _parse_target(text: str) -> int:
    name = text.strip().lower().replace("^", "")
    if name == "pi":
        return 1
    if name.startswith("pi") and name[2:].isdigit():
        p = int(name[2:])
        if 1 <= p <= 6:
            return p
    raise ValueError(f"target must be pi, pi^2, ..., pi^6, got {text!r}")


def _k_limit(p: int) -> int:
    """The largest order verify can check for power p within the table cap."""
    return MAX_INDEX // 2 - required_table_k(p, 0)


def _target_name(p: int) -> str:
    return "pi" if p == 1 else f"pi^{p}"


# kind is a key of SERIES, mu a Fraction or None
class SeriesSelector(namedtuple("SeriesSelector", "kind p k mu", defaults=(0, None))):
    __slots__ = ()

    @property
    def series_id(self) -> str:
        args = ",".join(f"{key}={getattr(self, key)}" for key in SERIES[self.kind].keys)
        return f"{self.kind}:{args}" if args else self.kind


# keys: the keys its selector takes; p: the power of pi it targets, None for
# the selector's p; evaluate(selector, Ns, ctx): the partial sums of N terms
# for each N of a list, in its order
Series = namedtuple("Series", "keys p evaluate")


def _family_partials(s, Ns, ctx):
    return [partial_sum(s.p, s.k, n, ctx) for n in Ns]


# The evaluators look their functions up at call time, so wrappers installed
# on this module's names (as the benchmark's tracer does) see every call.
# `gupta` and `classical` share one evaluator: a classical selector has k = 0.
# The four baselines make one pass to the largest N; the gupta family picks
# its working precision from N, so it sums each N on its own.
SERIES = {
    "gupta": Series(("p", "k"), None, _family_partials),
    "classical": Series(("p",), None, _family_partials),
    "alzer-h": Series((), 2, lambda s, Ns, ctx: alzer_h_partials(Ns, ctx)),
    "alzer-H": Series((), 2, lambda s, Ns, ctx: alzer_H_partials(Ns, ctx)),
    "kolbig": Series((), 2, lambda s, Ns, ctx: kolbig_partials(Ns, ctx)),
    "alzer-koumandos": Series(
        ("mu",), 1, lambda s, Ns, ctx: alzer_koumandos_partials(s.mu, Ns, ctx)
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
    mu = _parse_mu(args["mu"], f"{where} mu") if "mu" in args else None
    if not 1 <= p <= 6:
        raise ValueError(f"{where} needs p in 1..6")
    k_max = _k_limit(p)
    if not 0 <= k <= k_max:
        raise ValueError(f"{where} needs k in 0..{k_max} for p={p}")
    if mu is not None and mu <= 0:
        raise ValueError(f"{where} needs a positive mu (mu > 0)")
    return SeriesSelector(name, p, k, mu)


def _context(prec: int) -> PrecisionContext:
    if prec < 64:
        raise ValueError(f"--prec needs at least 64 bits, got {prec}")
    # a 3-term kolbig sum at 2^20 bits still finishes, in minutes; far larger
    # precisions exhaust memory or the int-to-str digit limit
    if prec > MAX_PREC:
        raise ValueError(f"--prec allows at most {MAX_PREC} bits, got {prec}")
    return PrecisionContext(prec)


def _value_row(
    sel: SeriesSelector,
    terms: int,
    value: CertifiedReal,
    target: CertifiedReal,
    fmt: str,
) -> ReportRow:
    """One report row for ``value``, with its residual against ``target``,
    the enclosure of pi^p."""
    residual = render_signed(value.mid - target.mid)
    digits, width = decimal_digits(value.ctx.precision_bits), None
    if fmt == "pretty":
        digits = distinguishing_digits(value, digits)
        width = render_bound(value.width, 3, "ceiling")
    lo, hi = render_interval(value, digits)
    return ReportRow(
        sel.series_id,
        sel.p,
        sel.k,
        terms,
        lo,
        hi,
        _target_name(sel.p),
        residual,
        None,
        width,
    )


# -- subcommands ---------------------------------------------------------------


def _cmd_numbers(args: argparse.Namespace) -> int:
    if args.max_index < 0 or args.max_index % 2 != 0:
        raise ValueError("--max-index must be even and >= 0")
    K = args.max_index // 2
    euler = args.kind == "euler"
    table = TableStore().euler(K) if euler else TableStore().bernoulli(K)
    # (index, value) pairs in index order, B_1 between B_0 and B_2; an Euler
    # value is an int, which has a numerator and a denominator too
    pairs = [(2 * k, q) for k, q in enumerate(table.values)]
    if not euler and K:
        pairs.insert(1, (1, table.b1))
    if args.format == "pretty":
        lines = [f"{'E' if euler else 'B'}_{i} = {q}" for i, q in pairs]
    else:
        cells = [(str(i), str(q.numerator), str(q.denominator)) for i, q in pairs]
        if args.format == "csv":
            lines = ["index,numerator,denominator", *map(",".join, cells)]
        else:  # json.dumps(cells, indent=2); no cell needs escaping
            arrays = ('  [\n    "' + '",\n    "'.join(c) + '"\n  ]' for c in cells)
            lines = ["[", ",\n".join(arrays), "]"]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    powers = _parse_powers(args.powers)
    if args.k_max < 0:
        raise ValueError("--k-max must be >= 0")
    allowed = min(_k_limit(p) for p in powers)
    if args.k_max > allowed:
        raise ValueError(
            f"--k-max {args.k_max} is too deep: --powers {args.powers} allow at "
            f"most {allowed} under the table hard cap of index {MAX_INDEX}"
        )
    checks = verify_grid(powers, args.k_max)
    rows = []
    for check in checks:
        shown = "1" if check.ratio == 1 else render_signed(check.ratio, 30)
        residual = "0" if check.holds else render_signed(check.ratio - 1, 12)
        rows.append(
            ReportRow(
                f"gupta:p={check.p},k={check.k}",
                check.p,
                check.k,
                0,
                shown,
                shown,
                "1",
                residual,
                check.holds,
            )
        )
    sys.stdout.write(render_report(rows, args.format))
    return 0 if all(check.holds for check in checks) else 1


def _cmd_sum(args: argparse.Namespace) -> int:
    sel = _parse_series(args.series)
    ctx = _context(args.prec)
    _check_terms([args.terms])
    [value] = SERIES[sel.kind].evaluate(sel, [args.terms], ctx)
    rows = [_value_row(sel, args.terms, value, ctx.pi_power(sel.p), args.format)]
    sys.stdout.write(render_report(rows, args.format))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
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
    _check_terms(terms_list)
    ctx = _context(args.prec)
    columns = [SERIES[sel.kind].evaluate(sel, terms_list, ctx) for sel in selectors]
    target = ctx.pi_power(target_p)
    # one line of rows per N, one row per series
    lines = [
        [_value_row(sel, N, value, target, args.format) for sel, value in zip(selectors, values)]
        for N, values in zip(terms_list, zip(*columns))
    ]
    if args.format == "pretty":
        table = [["N"] + [sel.series_id for sel in selectors]]
        table += [[str(N)] + [row.residual for row in line] for N, line in zip(terms_list, lines)]
        sys.stdout.write(align_table(table))
    else:
        sys.stdout.write(render_report([row for line in lines for row in line], args.format))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piforge",
        description="Exact identity verification and certified convergence "
        "measurement for series representations of powers of pi.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    numbers = sub.add_parser("numbers", help="print Euler or Bernoulli tables")
    numbers.add_argument("--kind", choices=("euler", "bernoulli"), required=True)
    numbers.add_argument("--max-index", type=int, required=True)
    numbers.add_argument("--format", choices=FORMATS, default="pretty")
    numbers.set_defaults(func=_cmd_numbers)

    verify = sub.add_parser("verify", help="exact identity checks over a (p, k) grid")
    verify.add_argument("--powers", default="1-6", help="e.g. 1,3,5 or 1-6")
    verify.add_argument("--k-max", type=int, default=64)
    verify.add_argument("--format", choices=FORMATS, default="pretty")
    verify.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    verify.set_defaults(func=_cmd_verify)

    sum_cmd = sub.add_parser("sum", help="certified partial sum of one series")
    sum_cmd.add_argument("--series", required=True, help=SERIES_HELP)
    sum_cmd.add_argument("--terms", type=int, required=True)
    sum_cmd.add_argument("--prec", type=int, default=128, help="precision bits")
    sum_cmd.add_argument("--format", choices=FORMATS, default="pretty")
    sum_cmd.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    sum_cmd.set_defaults(func=_cmd_sum)

    compare = sub.add_parser(
        "compare", help="residual table for several series sharing one target"
    )
    compare.add_argument("--target", required=True, help="pi, pi^2, ..., pi^6")
    compare.add_argument("--series", required=True, help="comma-separated selectors")
    compare.add_argument("--terms", required=True, help="comma-separated term counts")
    compare.add_argument("--prec", type=int, default=128)
    compare.add_argument("--format", choices=FORMATS, default="pretty")
    compare.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    compare.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, LookupError) as exc:
        sys.stderr.write(f"piforge: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
