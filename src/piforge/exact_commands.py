"""The ``numbers`` and ``verify`` subcommands: Euler and Bernoulli tables
printed from their integers, and the exact identity grid as report rows.

The tables are rebuilt in memory by every run, and nothing is read from or
written to disk.  ``numbers`` prints their (index, numerator, denominator)
rows itself, with B_1 = -1/2, which no table holds; ``verify``'s report is
rendered by :mod:`piforge.report`.

:mod:`piforge.cli` imports this module only to run one of these two, so a
``sum`` or ``compare`` run compiles none of it.  Each handler in
``COMMANDS`` takes the parsed options and returns the report and the exit
code, and imports the modules it calls when it runs: ``numbers`` loads
``special_numbers`` alone.
"""

from __future__ import annotations

__all__ = ["COMMANDS"]


def _number(text: str, where: str) -> int:
    """int(text), or a ValueError naming the option it came from."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: cannot read {text.strip()!r} as int") from None


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


def _cmd_numbers(args) -> tuple[str, int]:
    from .special_numbers import MAX_INDEX, TableStore

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
    from .special_numbers import MAX_INDEX, required_table_k

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


COMMANDS = {"numbers": _cmd_numbers, "verify": _cmd_verify}
