"""Report rows and deterministic rendering to CSV, JSON, and text tables.

A value row's numbers come as integer (numerator, denominator) pairs, an
interval bound as its mantissa over 2**scale.  ``render_bound`` prints each
from its integers, rounded once in an explicit direction (lower bounds toward
-inf, upper toward +inf, summary numbers half-even) by floor division by a
power of ten, as ``decimal`` prints the quotient (Steele & White, PLDI 1990):
a pair and its multiples print alike, and no float enters a report.  Only
this module and the subcommand modules, :mod:`piforge.exact_commands` (the
``numbers`` tables) and :mod:`piforge.series_commands` (a selector's id),
format numbers.  The CSV and JSON writers
quote cells themselves, importing ``csv`` or ``json.encoder`` only for a cell
that piforge's own never need.  ``CertifiedReal`` is named in annotations
only, so rendering an exact report loads no numeric code.
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


def _digits(n: int) -> str:
    """str(n) for n >= 0, split by powers of ten into pieces below int()'s
    4,300-digit limit on str()."""
    size = n.bit_length() * 1233 >> 12  # at most its digit count
    if size < 4000:
        return str(n)
    high, low = divmod(n, 10 ** (size // 2))
    return _digits(high) + _digits(low).zfill(size // 2)


def _rounded(num: int, den: int, digits: int, mode: str) -> tuple[int, int, bool]:
    """(c, e, exact): num / den, num != 0 < den, rounded in ``mode`` to c * 10**e,
    c of ``digits`` digits.  The floor q of |num| / den / 10**e has 1 to 4
    digits more, plus a sticky unit where it is inexact, so the digits it
    drops read 0 or one half only where the quotient's do."""
    a = abs(num)
    up = {"floor": num < 0, "ceiling": num > 0}.get(mode)  # round |num| up? None: half-even
    e = math.floor((a.bit_length() - den.bit_length() - 1) * math.log10(2)) - digits - 1
    a, den = (a, den * 10**e) if e >= 0 else (a * 10**-e, den)
    # a power-of-two den, as under every interval bound, is a shift
    q, r = divmod(a, den) if den & (den - 1) else (a >> den.bit_length() - 1, a & den - 1)
    q += bool(r) and q % 5 == 0
    drop = 1 + sum(q >= 10 ** (digits + i) for i in (1, 2, 3))
    c, tail = divmod(q, 10**drop)
    half = 5 * 10 ** (drop - 1)
    c += (tail > half or tail == half and c % 2 == 1) if up is None else up and tail > 0
    if c == 10**digits:  # a carry into a new digit
        c, e = c // 10, e + 1
    return c, e + drop, not (r or tail)


def render_bound(num: int, den: int, digits: int, mode: str) -> str:
    """Directed decimal rendering of the exact rational num / den, den > 0, to
    ``digits`` significant digits: plain down to 0.000001, d.ddE+n beyond,
    and an exact one without trailing zeros past the point."""
    if num == 0:
        return "0"
    c, e, exact = _rounded(num, den, digits, mode)
    while exact and e < 0 and c % 10 == 0:
        c, e = c // 10, e + 1
    text = _digits(c)
    point = e + len(text)  # digits before the decimal point
    if e > 0 or point <= -6:
        text = text[0] + "." * (len(text) > 1) + text[1:] + f"E{point - 1:+d}"
    elif point <= 0:
        text = "0." + "0" * -point + text
    elif e < 0:
        text = text[:point] + "." + text[point:]
    return "-" + text if num < 0 else text


def render_signed(num: int, den: int, digits: int = 12) -> str:
    """Round-to-nearest rendering for summary quantities like residuals."""
    return render_bound(num, den, digits, "half_even")


def distinguishing_digits(value: CertifiedReal, cap: int) -> int:
    """Enough significant digits to tell the bounds apart (for text tables)."""
    width, one = value.hi_m - value.lo_m, 1 << value.ctx.scale
    if width == 0:
        return min(cap, 17)
    mag_e = _rounded(max(-value.lo_m, value.hi_m), one, 3, "half_even")[1]
    return max(3, min(cap, mag_e - _rounded(width, one, 3, "half_even")[1] + 2))


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
