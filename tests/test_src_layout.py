"""Every public top-level name and every public class member in
``src/piforge`` has a reader in ``src/``.

Test oracles live in ``tests/oracles.py``; code that only the tests call
does not belong in the library.  The scan works on the syntax tree, so a
name that appears only in a docstring, a comment or an ``__all__`` string
does not count as used.

A member counts as read when some code in ``src/`` loads an attribute of
that name (``x.member``).  Bare names do not count: a local variable named
``one`` says nothing about ``PrecisionContext.one``.  The tree cannot tie an
attribute to a type, so a read of ``args.kind`` also counts for every class
with a ``kind`` member; the scan can only miss unused members, never flag
used ones.  Nor can it tie ``+`` or ``/`` to a class, so dunders stay out of
the member scan: each class's dunders are listed by hand in ``DUNDERS``,
with the reason each one stays.

The benchmark reaches some members by name (``vars(cls)[attr]`` in
``perfbench/layers.py``); ``test_benchmark_lookups_exist`` loads that file
and checks that every name it looks up is still there.

No module imports a ``_``-prefixed name from another piforge module: a name
private to one module has no reader outside it, and
``test_src_imports_no_private_names`` finds every such import.

Nothing in ``src/`` is memoised with ``functools``: each value is computed
where it is used, and ``test_src_keeps_no_caches`` finds every use of a
``functools`` memoiser.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "piforge"

# Public names whose callers are outside src/: ``main`` is the console entry
# point, ``reduce_exact`` is the single-identity entry point of the library
# (``verify_grid`` shares its private helper instead of calling it),
# ``set_memo_cap`` is called by the benchmark (perfbench/layers.py), and
# ``tail_bound`` is read by the benchmark's oracle (perfbench/run.py and
# perfbench/oracle.py).
ALLOWED = {"main", "reduce_exact", "set_memo_cap", "tail_bound"}

# Public members whose readers are outside src/.
ALLOWED_MEMBERS = {
    # perfbench/layers.py TRACED_METHODS wraps it through vars(cls), so a
    # traced benchmark run raises KeyError without it.
    "PrecisionContext.pi",
    # perfbench/layers.py COUNTED_OPS counts it and its microbenchmark times
    # it; it is the layer-by-layer operation the ROADMAP's north star names.
    "PrecisionContext.from_rational",
}

# The dunders each class may define.  Construction (``__new__``,
# ``__init__``) is always allowed; the rest are listed with their readers.
DUNDERS = {
    # __add__, __sub__ and __mul__: the interval operations, counted by
    # perfbench/layers.py COUNTED_OPS through vars(cls); __eq__ compares
    # enclosures bit for bit and __repr__ shows them.
    "CertifiedReal": {"__add__", "__sub__", "__mul__", "__eq__", "__repr__"},
}
CONSTRUCTION = {"__new__", "__init__"}

# The functools memoisers, found imported by name or read as functools.<name>.
MEMOISERS = {"lru_cache", "cache", "cached_property"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _modules() -> list[tuple[str, ast.Module]]:
    return [(path.name, _parse(path)) for path in sorted(SRC.glob("*.py"))]


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


def read_attributes(tree: ast.Module) -> set[str]:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def class_members(cls: ast.ClassDef) -> set[str]:
    """Methods, properties and class attributes of a class body, and the
    ``self.x`` attributes its ``__init__`` sets."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
            if node.name == "__init__":
                names.update(
                    target.attr
                    for target in ast.walk(node)
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.ctx, ast.Store)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                )
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def top_level_classes(tree: ast.Module) -> list[ast.ClassDef]:
    return [node for node in tree.body if isinstance(node, ast.ClassDef)]


def test_every_public_name_is_read_in_src():
    defined: dict[str, str] = {}
    read: set[str] = set()
    for name, tree in _modules():
        if name == "__init__.py":
            continue
        read |= read_names(tree)
        defined.update(dict.fromkeys(public_definitions(tree), name))
    unread = sorted(
        f"{defined[name]}:{name}" for name in defined.keys() - read - ALLOWED
    )
    assert not unread, f"public names no code in src/ reads: {unread}"


def test_every_public_member_is_read_in_src():
    modules = _modules()
    read = set().union(*(read_attributes(tree) for _, tree in modules))
    unread = sorted(
        f"{name}:{cls.name}.{member}"
        for name, tree in modules
        for cls in top_level_classes(tree)
        for member in class_members(cls)
        if not member.startswith("_")
        and member not in read
        and f"{cls.name}.{member}" not in ALLOWED_MEMBERS
    )
    assert not unread, f"public members no code in src/ reads: {unread}"


def test_dunders_are_listed_by_hand():
    found = {}
    for _, tree in _modules():
        for cls in top_level_classes(tree):
            dunders = {m for m in class_members(cls) if m.startswith("__") and m.endswith("__")}
            dunders -= CONSTRUCTION | {"__slots__"}
            if dunders:
                found[cls.name] = dunders
    assert found == DUNDERS


def test_benchmark_lookups_exist():
    """perfbench/layers.py looks piforge members up by name; each must exist."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py"
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    modules = {name: importlib.import_module(f"piforge.{name}") for name in layers.LAYERS}
    for layer, classes in layers.TRACED_METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(modules[layer], cls_name)
            for attr in methods:
                assert attr in vars(cls), f"{layer}.{cls_name}.{attr}"
    engine = modules["numeric_engine"]
    for op, (cls_name, attr) in layers.COUNTED_OPS.items():
        assert attr in vars(getattr(engine, cls_name)), f"{op}: {cls_name}.{attr}"
    assert callable(modules["exact_core"].set_memo_cap)
    assert callable(modules["gupta_series"].tail_bound)
    assert callable(modules["gupta_series"].prefactor)


def test_src_keeps_no_caches():
    uses = []
    for name, tree in _modules():
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names
            if alias.name in MEMOISERS
        }
        uses += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id in imported)
            or (
                isinstance(node, ast.Attribute)
                and node.attr in MEMOISERS
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            )
        ]
    assert not uses, f"functools memoisers used in src/: {uses}"


def test_src_imports_no_private_names():
    imports = [
        f"{name}:{node.lineno} {alias.name}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "piforge")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not imports, f"private names imported across src/ modules: {imports}"
