"""Command-line front end: verification reports and convergence tables.

Exit codes: 0 on success, 1 when an exact identity check fails (a genuine
mathematical or implementation discrepancy), 2 on usage errors.  Output is
deterministic: identical invocations produce byte-identical reports.  The
``--workers`` option is accepted for compatibility and ignored; everything
runs in one thread.

Euler and Bernoulli tables are rebuilt in memory by every run; nothing is
read from or written to disk.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .exact_verifier import verify_grid
from .gupta_series import classical_partial, partial_sum
from .numeric_engine import CertifiedReal, PrecisionContext
from .prior_series import (
    alzer_H_partial,
    alzer_h_partial,
    alzer_koumandos_partial,
    kolbig_partial,
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
from .special_numbers import TableStore, _table_rows

__all__ = ["main"]

FORMATS = ("csv", "json", "pretty")
WORKERS_HELP = "accepted for compatibility and ignored"


def _number(text: str, where: str, kind=int):
    """kind(text), or a ValueError naming the option or selector it came from."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"{where}: cannot read {text.strip()!r} as {kind.__name__}"
        ) from None


def _parse_powers(text: str) -> list[int]:
    powers: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        first, sep, last = token.partition("-")
        lo = _number(first, f"--powers {token!r}")
        hi = _number(last, f"--powers {token!r}") if sep else lo
        powers.update(range(lo, hi + 1))
    if not powers or not powers.issubset(range(1, 7)):
        raise ValueError(f"powers must come from 1..6, got {text!r}")
    return sorted(powers)


def _parse_target(text: str) -> int:
    name = text.strip().lower().replace("^", "")
    if name == "pi":
        return 1
    if name.startswith("pi") and name[2:].isdigit():
        p = int(name[2:])
        if 1 <= p <= 6:
            return p
    raise ValueError(f"target must be pi, pi^2, ..., pi^6, got {text!r}")


def _target_name(p: int) -> str:
    return "pi" if p == 1 else f"pi^{p}"


@dataclass(frozen=True)
class SeriesSelector:
    kind: str  # gupta | classical | alzer-h | alzer-H | kolbig | alzer-koumandos
    p: int
    k: int = 0
    mu: Fraction | None = None

    @property
    def series_id(self) -> str:
        if self.kind == "gupta":
            return f"gupta:p={self.p},k={self.k}"
        if self.kind == "classical":
            return f"classical:p={self.p}"
        if self.kind == "alzer-koumandos":
            return f"alzer-koumandos:mu={self.mu}"
        return self.kind


SELECTOR_KEYS = {
    "gupta": ("p", "k"),
    "classical": ("p",),
    "alzer-h": (),
    "alzer-H": (),
    "kolbig": (),
    "alzer-koumandos": ("mu",),
}


def _parse_series(text: str, default_p: int | None = None) -> SeriesSelector:
    name, _, argtext = text.strip().partition(":")
    if name not in SELECTOR_KEYS:
        raise ValueError(f"unknown series {name!r}")
    args: dict[str, str] = {}
    if argtext:
        for item in argtext.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"bad series argument {item!r} in {text!r}")
            key = key.strip()
            if key not in SELECTOR_KEYS[name]:
                allowed = ", ".join(SELECTOR_KEYS[name]) or "none"
                raise ValueError(
                    f"series {text!r} has unknown key {key!r} (allowed: {allowed})"
                )
            args[key] = value.strip()
    where = f"series {text!r}"
    p = _number(args["p"], f"{where} p") if "p" in args else default_p
    if name == "gupta":
        if "k" not in args:
            raise ValueError(f"{where} needs k=<order>")
        if p is None:
            raise ValueError(f"{where} needs p=<power> (no target given)")
        k = _number(args["k"], f"{where} k")
        if not 1 <= p <= 6 or k < 0:
            raise ValueError(f"{where} out of range")
        return SeriesSelector("gupta", p, k)
    if name == "classical":
        if p is None or not 1 <= p <= 6:
            raise ValueError(f"{where} needs p in 1..6")
        return SeriesSelector("classical", p)
    if name == "alzer-koumandos":
        if "mu" not in args:
            raise ValueError(f"{where} needs mu=<positive rational>")
        mu = _number(args["mu"], f"{where} mu", Fraction)
        if mu <= 0:
            raise ValueError("the parameter mu must be positive")
        return SeriesSelector("alzer-koumandos", 1, mu=mu)
    return SeriesSelector(name, 2)


def _evaluate(sel: SeriesSelector, terms: int, ctx: PrecisionContext) -> CertifiedReal:
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if sel.kind == "gupta":
        return partial_sum(sel.p, sel.k, terms, ctx).partial
    if sel.kind == "classical":
        return classical_partial(sel.p, terms, ctx).partial
    if sel.kind == "alzer-h":
        return alzer_h_partial(terms, ctx)
    if sel.kind == "alzer-H":
        return alzer_H_partial(terms, ctx)
    if sel.kind == "kolbig":
        return kolbig_partial(terms, ctx)
    if sel.kind == "alzer-koumandos":
        return alzer_koumandos_partial(sel.mu, terms - 1, ctx)
    raise ValueError(f"unknown series kind {sel.kind!r}")


def _value_row(
    sel: SeriesSelector,
    terms: int,
    value: CertifiedReal,
    ctx: PrecisionContext,
    fmt: str,
) -> ReportRow:
    residual = render_signed(value.mid - ctx.pi_power(sel.p).mid)
    digits_full = decimal_digits(ctx.precision_bits)
    if fmt == "pretty":
        digits = distinguishing_digits(value, digits_full)
        lo, hi = render_interval(value, digits)
        width = render_bound(value.width, 3, "ceiling")
    else:
        lo, hi = render_interval(value, digits_full)
        width = None
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
    store = TableStore()
    if args.kind == "euler":
        rows = _table_rows(store.euler(args.max_index // 2))
        symbol = "E"
    else:
        rows = _table_rows(store.bernoulli(args.max_index // 2))
        symbol = "B"
    if args.format == "json":
        text = json.dumps([[str(i), num, den] for i, num, den in rows], indent=2) + "\n"
    elif args.format == "csv":
        lines = ["index,numerator,denominator"]
        lines += [f"{i},{num},{den}" for i, num, den in rows]
        text = "\n".join(lines) + "\n"
    else:
        lines = []
        for i, num, den in rows:
            shown = num if den == "1" else f"{num}/{den}"
            lines.append(f"{symbol}_{i} = {shown}")
        text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    powers = _parse_powers(args.powers)
    if args.k_max < 0:
        raise ValueError("--k-max must be >= 0")
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
    ctx = PrecisionContext(args.prec)
    value = _evaluate(sel, args.terms, ctx)
    rows = [_value_row(sel, args.terms, value, ctx, args.format)]
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
    if not terms_list or any(t < 1 for t in terms_list):
        raise ValueError("--terms needs a comma-separated list of counts >= 1")
    ctx = PrecisionContext(args.prec)
    rows = []
    matrix: dict[tuple[int, str], str] = {}
    for terms in terms_list:
        for sel in selectors:
            value = _evaluate(sel, terms, ctx)
            row = _value_row(sel, terms, value, ctx, args.format)
            rows.append(row)
            matrix[(terms, sel.series_id)] = row.residual
    if args.format == "pretty":
        table = [["N"] + [sel.series_id for sel in selectors]]
        for terms in terms_list:
            table.append(
                [str(terms)] + [matrix[(terms, sel.series_id)] for sel in selectors]
            )
        sys.stdout.write(align_table(table))
    else:
        sys.stdout.write(render_report(rows, args.format))
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
    sum_cmd.add_argument(
        "--series",
        required=True,
        help="gupta:p=..,k=.. | classical:p=.. | alzer-h | alzer-H | kolbig "
        "| alzer-koumandos:mu=..",
    )
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
