"""Command-line front end: the process entry and the grammar.

Exit codes: 0 on success, 1 when an exact identity check fails (a genuine
mathematical or implementation discrepancy), 2 on usage errors and on a
report that cannot be written.  Output is deterministic: identical
invocations produce byte-identical reports.  The ``--workers`` option is
accepted for compatibility and ignored; everything runs in one thread.

A run compiles and loads only what its subcommand calls.  This module
imports no piforge module at its top, and ``main`` imports the one module
that runs the parsed subcommand: :mod:`piforge.exact_commands` for
``numbers`` and ``verify``, :mod:`piforge.series_commands` for ``sum`` and
``compare``; no piforge module imports this one, which runs as
``__main__``.  Compiled from source, a job's peak RSS follows the largest
module it compiles, so the entry holds no subcommand's code.

``_GRAMMAR`` holds every subcommand and option once.  ``_parse`` reads from
it the one shape of a well-formed job, and argparse, built from it too, is
imported only for anything else (--help, abbreviations, --option=value,
errors).  ``run``, the process entry, freezes the heap once ``main``
returns, so interpreter shutdown does not walk objects that die with the
process anyway.
"""

from __future__ import annotations

import gc
import os
import sys
from importlib import import_module
from types import SimpleNamespace

__all__ = ["main", "run"]

FORMATS = ("csv", "json", "pretty")
WORKERS_HELP = "accepted for compatibility and ignored"


# subcommand: (the piforge module whose COMMANDS runs it, help, {flag: (int,
# str or a tuple of choices, default, help)}), the options in the order
# --help lists them; a default of None marks a required option, and sum's
# --series help is the series table's, which _build_parser reads
_FORMAT, _WORKERS = (FORMATS, "pretty", None), (int, 1, WORKERS_HELP)
_GRAMMAR = {
    "numbers": ("exact_commands", "print Euler or Bernoulli tables", {
        "--kind": (("euler", "bernoulli"), None, None),
        "--max-index": (int, None, None),
        "--format": _FORMAT,
    }),
    "verify": ("exact_commands", "exact identity checks over a (p, k) grid", {
        "--powers": (str, "1-6", "e.g. 1,3,5 or 1-6"),
        "--k-max": (int, 64, None),
        "--format": _FORMAT,
        "--workers": _WORKERS,
    }),
    "sum": ("series_commands", "certified partial sum of one series", {
        "--series": (str, None, None),
        "--terms": (int, None, None),
        "--prec": (int, 128, "precision bits"),
        "--format": _FORMAT,
        "--workers": _WORKERS,
    }),
    "compare": ("series_commands", "residual table for several series sharing one target", {
        "--target": (str, None, "pi, pi^2, ..., pi^6"),
        "--series": (str, None, "comma-separated selectors"),
        "--terms": (str, None, "comma-separated term counts"),
        "--prec": (int, 128, None),
        "--format": _FORMAT,
        "--workers": _WORKERS,
    }),
}


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """argparse's namespace for an argv of a subcommand and then distinct
    spelled-out ``--option value`` pairs, each value without a leading "-"
    and read by int() or among the choices, every required option given;
    None for any other argv, which argparse then parses or refuses."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    options = _GRAMMAR[argv[0]][2]
    pairs = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(pairs) + 1 != len(argv) or not pairs.keys() <= options.keys():
        return None  # a flag without a value, a repeated flag or an unknown one
    args = {"command": argv[0]}
    for flag, (kind, default, _) in options.items():
        value = pairs.get(flag, default)
        if flag in pairs:
            if value.startswith("-") or isinstance(kind, tuple) and value not in kind:
                return None
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
        elif value is None:
            return None  # a required option left out
        args[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(**args)


def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def print_help(self, file=None):  # argparse's own swallows an OSError
            (file or sys.stdout).write(self.format_help())

    parser = _Parser(
        prog="piforge",
        description="Exact identity verification and certified convergence "
        "measurement for series representations of powers of pi.",
    )
    series_help = import_module(f"{__package__}.series_commands").SERIES_HELP
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, options) in _GRAMMAR.items():
        command = sub.add_parser(name, help=summary)
        for flag, (kind, default, help_text) in options.items():
            if (name, flag) == ("sum", "--series"):
                help_text = series_help
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            given = {"required": True} if default is None else {"default": default}
            command.add_argument(flag, **typed, **given, help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:  # argparse writes --help here
        args = _parse(argv) or _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    except OSError as exc:
        return _unwritten(exc)
    commands = import_module(f"{__package__}.{_GRAMMAR[args.command][0]}").COMMANDS
    try:
        report, code = commands[args.command](args)
    except (ValueError, LookupError) as exc:
        return _error(exc)
    try:
        sys.stdout.write(report)
    except OSError as exc:
        return _unwritten(exc)
    return code


def _error(message: object) -> int:
    sys.stderr.write(f"piforge: error: {message}\n")
    return 2


def _unwritten(exc: OSError) -> int:
    return _error(f"cannot write the report: {exc.strerror or exc}")


def run() -> int:
    """``main()`` on ``sys.argv``, a flush of stdout, then ``gc.freeze()``:
    the process entry of ``python -m piforge.cli`` and the ``piforge``
    script.  ``main`` never freezes, as tests and the benchmark call it many
    times in one process.  A failed flush exits 2 with one error line, unless
    ``main`` returned 2 and so has written it, and sends the unwritten bytes
    to the null device, so the interpreter's shutdown flush stays quiet."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code != 2:
            code = _unwritten(exc)
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
