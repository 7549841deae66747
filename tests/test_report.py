"""``render_json`` writes the bytes of ``json.dumps(..., indent=2)`` without
running the pure-Python encoder that ``indent`` selects, and ``render_csv``
the bytes of ``csv.writer(buffer, lineterminator="\\n")`` without importing
``csv`` for piforge's own cells."""

from __future__ import annotations

import csv
import io
import json

from hypothesis import example, given, strategies as st

from piforge.report import CSV_HEADER, ReportRow, render_csv, render_json

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
