"""Every public top-level name in ``src/piforge`` has a reader in ``src/``.

Test oracles live in ``tests/oracles.py``; code that only the tests call
does not belong in the library.  The scan works on the syntax tree, so a
name that appears only in a docstring, a comment or an ``__all__`` string
does not count as used.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "piforge"

# Public names whose callers are outside src/: ``main`` is the console entry
# point, ``reduce_exact`` is the single-identity entry point of the library
# (``verify_grid`` shares its private helper instead of calling it),
# ``set_memo_cap`` is called by the benchmark (perfbench/layers.py), and
# ``tail_bound`` is read by the benchmark's oracle (perfbench/run.py and
# perfbench/oracle.py).
ALLOWED = {"main", "reduce_exact", "set_memo_cap", "tail_bound"}


def public_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def read_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_is_read_in_src():
    defined: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= read_names(tree)
        defined.update(dict.fromkeys(public_definitions(tree), path.name))
    unread = sorted(
        f"{defined[name]}:{name}" for name in defined.keys() - read - ALLOWED
    )
    assert not unread, f"public names no code in src/ reads: {unread}"
