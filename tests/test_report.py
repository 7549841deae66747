"""``render_json`` writes the bytes of ``json.dumps(..., indent=2)`` without
running the pure-Python encoder that ``indent`` selects."""

from __future__ import annotations

import json

from hypothesis import example, given, strategies as st

from piforge.report import CSV_HEADER, ReportRow, render_json

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
