"""Report rows and deterministic rendering to CSV, JSON, and text tables.

A value row's numbers are rendered through ``decimal``, imported by those
renderers only, from exact rationals given as integer (numerator,
denominator) pairs -- an interval bound is its mantissa over 2**scale --
with explicit rounding directions (lower bounds toward -inf, upper bounds
toward +inf, single summary numbers half-even).  ``decimal`` divides the two
integers and rounds once, so a pair and any multiple of it print alike,
identical invocations are byte-identical, and no float ever enters a
report.  The math modules return numbers; this module and
:mod:`piforge.cli` alone format them.  The CSV and JSON writers quote cells
themselves and import ``csv`` or ``json.encoder`` only for a cell that needs
more than piforge's own cells do.  ``numeric_engine.CertifiedReal`` is named
in annotations only, so rendering an exact report loads no numeric code.
"""

from __future__ import annotations

import io
import math
from collections import namedtuple

__all__ = [
    "CSV_HEADER",
    "ReportRow",
    "align_table",
    "decimal_digits",
    "render_bound",
    "render_report",
    "render_signed",
]

CSV_HEADER = [
    "series_id",
    "p",
    "k",
    "N",
    "value_lo",
    "value_hi",
    "target",
    "residual",
    "exact_ok",
]


def decimal_digits(precision_bits: int) -> int:
    """Significant decimal digits needed to express a binary precision."""
    return int(math.ceil(precision_bits * math.log10(2))) + 2


def _to_decimal(num: int, den: int, digits: int, mode: str) -> decimal.Decimal:
    import decimal

    ctx = decimal.Context(
        prec=max(digits, 1),
        rounding=getattr(decimal, f"ROUND_{mode.upper()}"),
        Emin=-999999999,
        Emax=999999999,
    )
    return ctx.divide(decimal.Decimal(num), decimal.Decimal(den))


def render_bound(num: int, den: int, digits: int, mode: str) -> str:
    """Directed decimal rendering of the exact rational num / den, den > 0."""
    return str(_to_decimal(num, den, digits, mode))


def render_signed(num: int, den: int, digits: int = 12) -> str:
    """Round-to-nearest rendering for summary quantities like residuals."""
    return render_bound(num, den, digits, "half_even")


def render_interval(value: CertifiedReal, digits: int) -> tuple[str, str]:
    one = 1 << value.ctx.scale
    return (
        render_bound(value.lo_m, one, digits, "floor"),
        render_bound(value.hi_m, one, digits, "ceiling"),
    )


def distinguishing_digits(value: CertifiedReal, cap: int) -> int:
    """Enough significant digits to tell the bounds apart (for text tables)."""
    width, one = value.hi_m - value.lo_m, 1 << value.ctx.scale
    if width == 0:
        return min(cap, 17)
    mag_exp = _to_decimal(max(-value.lo_m, value.hi_m), one, 3, "half_even").adjusted()
    width_exp = _to_decimal(width, one, 3, "half_even").adjusted()
    return max(3, min(cap, mag_exp - width_exp + 2))


class ReportRow(namedtuple("ReportRow", [*CSV_HEADER, "width"], defaults=(None, None))):
    """One report line; N is 0 for exact identity checks, and exact_ok is
    present only on identity checks.  ``width`` is a presentation-only
    column for text tables and never enters CSV or JSON output."""

    __slots__ = ()


_CSV_OK = {None: "", True: "true", False: "false"}
_PRETTY_OK = {None: "-", True: "ok", False: "FAIL"}
_CSV_QUOTED = frozenset('"\r\n\0')


def render_csv(rows: list[ReportRow]) -> str:
    """The bytes of csv.writer(buffer, lineterminator="\\n") for the header and
    rows; csv itself writes a table with a quote, line break or NUL in a cell."""
    table = [CSV_HEADER, *((*row[:8], _CSV_OK[row.exact_ok]) for row in rows)]
    lines = []
    for line in table:
        cells = ["" if cell is None else str(cell) for cell in line]
        if not _CSV_QUOTED.isdisjoint("".join(cells)):
            import csv

            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows(table)
            return buffer.getvalue()
        lines.append(",".join([f'"{cell}"' if "," in cell else cell for cell in cells]) + "\n")
    return "".join(lines)


_JSON_LITERALS = {None: "null", True: "true", False: "false"}


def _json_value(cell) -> str:
    if isinstance(cell, str):
        if cell.isascii() and cell.isprintable() and '"' not in cell and "\\" not in cell:
            return f'"{cell}"'
        from json.encoder import encode_basestring_ascii

        return encode_basestring_ascii(cell)
    if cell is None or isinstance(cell, bool):
        return _JSON_LITERALS[cell]
    return int.__repr__(cell)


def render_json(rows: list[ReportRow]) -> str:
    """The bytes of json.dumps([dict(zip(CSV_HEADER, row)) for row in rows],
    indent=2), built without its pure-Python indenting encoder."""
    if not rows:
        return "[]\n"
    keys = [f'    "{name}": ' for name in CSV_HEADER]
    objects = [",\n".join([key + _json_value(cell) for key, cell in zip(keys, row)])
               for row in rows]
    return "[\n  {\n" + "\n  },\n  {\n".join(objects) + "\n  }\n]\n"


def render_pretty(rows: list[ReportRow]) -> str:
    with_width = any(row.width is not None for row in rows)
    header = list(CSV_HEADER)
    if with_width:
        header.insert(6, "+/-width")
    table = [header]
    for row in rows:
        cells = [*map(str, row[:8]), _PRETTY_OK[row.exact_ok]]
        if with_width:
            cells.insert(6, "-" if row.width is None else str(row.width))
        table.append(cells)
    return align_table(table)


def align_table(table: list[list[str]]) -> str:
    """Left-aligned text table: columns two spaces apart, a dash rule under
    the first (header) line, trailing blanks stripped."""
    widths = [max(len(line[i]) for line in table) for i in range(len(table[0]))]
    out = []
    for idx, line in enumerate(table):
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
        if idx == 0:
            out.append("  ".join("-" * w for w in widths).rstrip())
    return "\n".join(out) + "\n"


def render_report(rows: list[ReportRow], fmt: str) -> str:
    if fmt == "csv":
        return render_csv(rows)
    if fmt == "json":
        return render_json(rows)
    if fmt == "pretty":
        return render_pretty(rows)
    raise ValueError(f"unknown format {fmt!r}")
