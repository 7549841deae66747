"""``render_bound`` prints an integer pair in the direction it is asked,
to at most the digits it is given, and alike for every multiple of the pair,
byte for byte as ``decimal`` prints the quotient rounded once, which stays
the oracle here and is imported nowhere in ``src/``;
``render_json`` writes the bytes of ``json.dumps(..., indent=2)`` without
running the pure-Python encoder that ``indent`` selects, and ``render_csv``
the bytes of ``csv.writer(buffer, lineterminator="\\n")`` without importing
``csv`` for piforge's own cells."""

from __future__ import annotations

import csv
import decimal
import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from piforge.numeric_engine import CertifiedReal, PrecisionContext
from piforge.report import (
    CSV_HEADER,
    ReportRow,
    distinguishing_digits,
    render_bound,
    render_csv,
    render_json,
    render_report,
)


def last_digit_exponent(text: str) -> int:
    """The power of ten of the last digit of a printed number."""
    mantissa, _, exponent = text.partition("E")
    return int(exponent or 0) - len(mantissa.partition(".")[2])


def significant_digits(text: str) -> int:
    mantissa = text.lstrip("-").partition("E")[0]
    return len(mantissa.replace(".", "").lstrip("0"))


# Mantissas over a power of two, like an interval bound's, and general
# pairs; a scale g >= 1 multiplies both members.
@given(
    st.integers(-(10**60), 10**60),
    st.one_of(st.integers(1, 10**60), st.integers(0, 200).map(lambda e: 1 << e)),
    st.integers(1, 50),
    st.sampled_from(["floor", "ceiling", "half_even"]),
    st.integers(1, 10**30),
)
@example(0, 1 << 160, 41, "floor", 3)
@example(-1, 2, 1, "half_even", 1)  # a tie, to the even digit
@example(25, 10, 2, "half_even", 7)  # exact: no rounding, no trailing zero
@example(10**5000 + 1, 3, 20, "floor", 2)  # past int()'s 4,300-digit limit
@example(-(10**5000), 7 * 10**4990, 5, "ceiling", 9)
def test_render_bound_rounds_as_asked(num, den, digits, mode, g):
    text = render_bound(num, den, digits, mode)
    value, printed = Fraction(num, den), Fraction(text)
    half_unit = Fraction(10) ** last_digit_exponent(text) / 2
    if mode == "floor":
        assert value - 2 * half_unit < printed <= value
    elif mode == "ceiling":
        assert value <= printed < value + 2 * half_unit
    else:
        assert abs(printed - value) <= half_unit
    assert significant_digits(text) <= digits
    assert render_bound(g * num, g * den, digits, mode) == text


def decimal_text(num: int, den: int, digits: int, mode: str) -> str:
    """str() of decimal's quotient num / den rounded once, in ``mode``, to
    ``digits`` significant digits, with no exponent bound in reach."""
    ctx = decimal.Context(
        prec=digits,
        rounding=getattr(decimal, f"ROUND_{mode.upper()}"),
        Emin=-999999999,
        Emax=999999999,
    )
    return str(ctx.divide(decimal.Decimal(num), decimal.Decimal(den)))


MODES = ["floor", "ceiling", "half_even"]


@pytest.mark.parametrize(
    "num, den, digits, mode, text",
    [
        (0, 1, 5, "floor", "0"),
        (0, 1 << 64, 12, "half_even", "0"),
        (1, 4, 10, "floor", "0.25"),  # exact: no trailing zeros
        (100, 1, 10, "half_even", "100"),  # ... but only down to exponent 0
        (1200, 1, 2, "half_even", "1.2E+3"),
        (1200, 1, 3, "ceiling", "1.20E+3"),
        (1, 10**6, 12, "half_even", "0.000001"),  # the last plain form
        (1, 10**7, 12, "half_even", "1E-7"),
        (99999, 10**4, 3, "ceiling", "10.0"),  # a carry into a new digit
        (99999, 10**4, 3, "half_even", "10.0"),
        (99999, 10**4, 3, "floor", "9.99"),
        (25, 10, 1, "half_even", "2"),  # ties go to the even digit, down
        (35, 10, 1, "half_even", "4"),  # ... and up
        (-25, 10, 1, "half_even", "-2"),
        (-35, 10, 1, "half_even", "-4"),
        (-7, 3, 5, "floor", "-2.3334"),  # floor and ceiling below zero
        (-7, 3, 5, "ceiling", "-2.3333"),
        (-1, 3 << 200, 3, "floor", "-2.08E-61"),
        (10001, 1, 3, "floor", "1.00E+4"),  # inexact: the zeros stay
    ],
)
def test_render_bound_examples(num, den, digits, mode, text):
    assert render_bound(num, den, digits, mode) == text == decimal_text(num, den, digits, mode)


# As above, mantissas over a power of two and general pairs.
@given(
    st.integers(-(10**60), 10**60),
    st.one_of(st.integers(1, 10**60), st.integers(0, 200).map(lambda e: 1 << e)),
    st.integers(1, 50),
    st.sampled_from(MODES),
)
@example(10**5000 + 1, 3, 4400, "floor")  # past int()'s 4,300-digit limit
@example(-(10**5000) - 1, 7, 4400, "ceiling")
@example(-(2**20000) - 1, 1 << 6000, 9000, "half_even")
@example(2**20000 + 1, 1 << 20000, 6000, "ceiling")  # 1.000...0001 to 6,000 digits
@example(12345 * 10**40, 10**40, 4, "half_even")  # a tie: 1.234E+4
@example(12355 * 10**40, 10**40, 4, "half_even")  # 1.236E+4
def test_render_bound_prints_what_decimal_prints(num, den, digits, mode):
    assert render_bound(num, den, digits, mode) == decimal_text(num, den, digits, mode)


def decimal_exponent(num: int, den: int) -> int:
    return decimal.Context(prec=3).divide(decimal.Decimal(num), decimal.Decimal(den)).adjusted()


@given(st.integers(-(10**40), 10**40), st.integers(1, 10**40), st.integers(3, 60))
@example(-(10**30), 10**30 - 1, 40)  # a width that rounds up into a new digit
@example(999 * 2**40, 1, 40)
def test_distinguishing_digits_reads_decimals_exponents(lo, width, cap):
    """A pretty row's digit count follows the exponents of its larger bound
    and of its width, each rounded half-even to 3 digits as decimal does."""
    ctx = PrecisionContext(64)
    one = 1 << ctx.scale
    value = CertifiedReal(ctx, lo, lo + width)
    spread = decimal_exponent(max(-lo, lo + width), one) - decimal_exponent(width, one)
    assert distinguishing_digits(value, cap) == max(3, min(cap, spread + 2))


# Every JSON column may hold any of the kinds a row can carry: text with
# quotes, backslashes, control and non-ASCII characters, None, bools and ints.
TRICKY = 'é"\\\x00\x1f\x7f \U0001f600/'
values = st.one_of(st.none(), st.booleans(), st.integers(), st.text(), st.just(TRICKY))
rows = st.builds(
    ReportRow,
    *[values] * len(CSV_HEADER),
    width=st.one_of(st.none(), st.text()),
)


@given(st.lists(rows, max_size=4))
@example([])
@example([ReportRow(TRICKY, True, False, None, "", "0", "pi", "-1E-3", None, "w")])
def test_render_json_matches_json_dumps(report):
    expected = json.dumps([dict(zip(CSV_HEADER, row)) for row in report], indent=2) + "\n"
    assert render_json(report) == expected


def test_render_report_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        render_report([], "xml")


# CSV cells are None, ints or text; the text draws on the characters csv
# quotes or refuses: the delimiter, the quote, CR, LF and NUL, next to empty
# and non-ASCII text.
CSV_TEXT = st.text(st.sampled_from(',"\r\n\0 a1-.:=é\u4e2d\U0001f600'))
csv_cells = st.one_of(st.none(), st.integers(), CSV_TEXT, st.text(), st.just(""))
csv_rows = st.builds(
    ReportRow,
    *[csv_cells] * (len(CSV_HEADER) - 1),
    exact_ok=st.sampled_from([None, True, False]),
    width=st.one_of(st.none(), st.text()),
)


def csv_outcome(write) -> str:
    """What ``write()`` returns, or the error csv raises: before Python 3.11
    csv refuses a NUL in a cell."""
    try:
        return write()
    except csv.Error as exc:
        return f"csv.Error: {exc}"


def csv_writer_text(report) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    ok = {None: "", True: "true", False: "false"}
    writer.writerows((*row[:8], ok[row.exact_ok]) for row in report)
    return buffer.getvalue()


@given(st.lists(csv_rows, max_size=4))
@example([])
@example([ReportRow("gupta:p=1,k=2", 1, 2, 0, "1", "1", "1", "0", True)])
@example([ReportRow("id", 1, 2, 0, None, None, "1", None, None)])
@example([ReportRow('a"b', 1, 2, 0, "x\ry", "x\ny", "", "é,\U0001f600\0", False, "w")])
def test_render_csv_matches_csv_writer(report):
    expected = csv_outcome(lambda: csv_writer_text(report))
    assert csv_outcome(lambda: render_csv(report)) == expected
