"""``render_bound`` prints an integer pair in the direction it is asked,
to at most the digits it is given, and alike for every multiple of the pair;
``render_json`` writes the bytes of ``json.dumps(..., indent=2)`` without
running the pure-Python encoder that ``indent`` selects, and ``render_csv``
the bytes of ``csv.writer(buffer, lineterminator="\\n")`` without importing
``csv`` for piforge's own cells."""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from hypothesis import example, given, strategies as st

from piforge.report import CSV_HEADER, ReportRow, render_bound, render_csv, render_json


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
