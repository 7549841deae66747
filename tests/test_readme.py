"""The README's examples run as written: its Python snippet and its four
`piforge` commands, so the docs cannot drift from the API."""

from __future__ import annotations

import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from piforge.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def test_readme_python_example_runs():
    (code,) = fenced_blocks("python")
    assert "check = verify_grid([5], 4)[-1]" in code
    with redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), {})
    assert "+/-" in out.getvalue()


def test_readme_cli_commands_exit_zero():
    text = "\n".join(fenced_blocks("sh")).replace("\\\n", " ")
    lines = [line for line in text.splitlines() if line.startswith("piforge ")]
    commands = [shlex.split(line) for line in lines]
    assert len(commands) == 4
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv[1:])
        assert (code, err.getvalue()) == (0, ""), argv
        assert out.getvalue()
