"""Report rows and deterministic rendering to CSV, JSON, and text tables.

All numeric strings are produced through the ``decimal`` module from exact
rationals with explicit rounding directions (lower bounds toward -inf,
upper bounds toward +inf, single summary numbers half-even), so identical
invocations are byte-identical and no float ever enters a report.  The math
modules return numbers; this module and :mod:`piforge.cli` alone format them.
"""

from __future__ import annotations

import csv
import decimal
import io
import math
from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .numeric_engine import CertifiedReal

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

_ROUNDING = {
    "floor": decimal.ROUND_FLOOR,
    "ceiling": decimal.ROUND_CEILING,
    "half_even": decimal.ROUND_HALF_EVEN,
}


def decimal_digits(precision_bits: int) -> int:
    """Significant decimal digits needed to express a binary precision."""
    return int(math.ceil(precision_bits * math.log10(2))) + 2


def _to_decimal(value: Fraction, digits: int, mode: str) -> decimal.Decimal:
    ctx = decimal.Context(
        prec=max(digits, 1),
        rounding=_ROUNDING[mode],
        Emin=-999999999,
        Emax=999999999,
    )
    return ctx.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator))


def render_bound(value: Fraction, digits: int, mode: str) -> str:
    """Directed decimal rendering of an exact rational."""
    if value == 0:
        return "0"
    return str(_to_decimal(value, digits, mode))


def render_signed(value: Fraction, digits: int = 12) -> str:
    """Round-to-nearest rendering for summary quantities like residuals."""
    return render_bound(value, digits, "half_even")


def render_interval(value: CertifiedReal, digits: int) -> tuple[str, str]:
    return (
        render_bound(value.lo, digits, "floor"),
        render_bound(value.hi, digits, "ceiling"),
    )


def distinguishing_digits(value: CertifiedReal, cap: int) -> int:
    """Enough significant digits to tell the bounds apart (for text tables)."""
    width = value.width
    if width == 0:
        return min(cap, 17)
    magnitude = value.mag
    if magnitude == 0:
        return 3
    mag_exp = _to_decimal(magnitude, 3, "half_even").adjusted()
    width_exp = _to_decimal(width, 3, "half_even").adjusted()
    return max(3, min(cap, mag_exp - width_exp + 2))


class ReportRow(namedtuple("ReportRow", [*CSV_HEADER, "width"], defaults=(None, None))):
    """One report line; N is 0 for exact identity checks, and exact_ok is
    present only on identity checks.  ``width`` is a presentation-only
    column for text tables and never enters CSV or JSON output."""

    __slots__ = ()


_CSV_OK = {None: "", True: "true", False: "false"}
_PRETTY_OK = {None: "-", True: "ok", False: "FAIL"}


def render_csv(rows: list[ReportRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows((*row[:8], _CSV_OK[row.exact_ok]) for row in rows)
    return buffer.getvalue()


# The bytes of json.dumps([dict(zip(CSV_HEADER, row)) for row in rows],
# indent=2), built without its pure-Python indenting encoder.
_JSON_KEYS = [f"    {encode_basestring_ascii(name)}: " for name in CSV_HEADER]
_JSON_LITERALS = {None: "null", True: "true", False: "false"}


def _json_value(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return _JSON_LITERALS[value]
    return int.__repr__(value)


def render_json(rows: list[ReportRow]) -> str:
    if not rows:
        return "[]\n"
    objects = [
        ",\n".join(key + _json_value(value) for key, value in zip(_JSON_KEYS, row))
        for row in rows
    ]
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
