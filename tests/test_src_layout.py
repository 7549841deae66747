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
``functools`` memoiser.  Nor does a module keep state that a call changes:
``test_src_keeps_no_module_state`` finds every ``global`` statement and
every item written into or deleted from a module-level name.

The exact layer (``EXACT_LAYER``), on which ``verify`` runs, imports no
piforge module outside itself, so proving an identity loads no interval or
series code; ``test_exact_layer_imports_only_itself`` checks it.

No module imports ``piforge.cli``, by an import statement or by
``import_module``: the process entry runs as ``__main__``, so importing it
by name would compile and run it a second time;
``test_no_module_imports_the_entry`` checks it.

The two kernels of a gupta row (``KERNELS``: the direct walk and the tails)
are imported only inside the function that takes their path, never as a
module is imported, so a run compiles only the kernels its rows run;
``test_no_module_imports_a_kernel_at_import`` finds every import of one
outside a function body.

An exact rational crosses between modules as an integer (numerator,
denominator) pair, and ``report`` prints one from its integers alone.  No
module imports ``fractions``, ``numbers`` or ``decimal`` at its top
(``test_no_module_imports_rationals_at_the_top``), and of the functions only
those in ``FRACTION_MAKERS`` import one, ``fractions``, when called
(``test_only_the_fraction_makers_import_fractions``).
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "piforge"

# Public names whose callers are outside src/: ``main`` is the in-process
# entry point of the tests and the benchmark, ``run`` the process entry whose
# caller is the ``piforge`` console script in pyproject.toml,
# ``set_memo_cap`` is a no-op that stays until the benchmark drops its one
# call (perfbench/layers.py ``fresh_process_state``, ROADMAP item 1), and
# ``tail_bound`` is read by the benchmark's oracle (perfbench/run.py and
# perfbench/oracle.py).
ALLOWED = {"main", "run", "set_memo_cap", "tail_bound"}

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

EXACT_LAYER = {"special_numbers", "exact_core", "closed_forms", "exact_verifier"}
KERNELS = {"walk", "tails"}
RATIONALS = {"fractions", "numbers", "decimal"}
# The functions that still make a Fraction, each for the benchmark, which
# calls them by name (perfbench/layers.py, perfbench/oracle.py).
FRACTION_MAKERS = {"closed_forms.prefactor", "gupta_series.tail_bound",
                   "PrecisionContext.from_rational"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _modules() -> list[tuple[str, ast.Module]]:
    return [(path.name, _parse(path)) for path in sorted(SRC.glob("*.py"))]


def module_level_names(tree: ast.Module) -> set[str]:
    """The names a module's top-level assignments bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def public_definitions(tree: ast.Module) -> set[str]:
    names = module_level_names(tree) | {
        node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
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


def test_src_keeps_no_module_state():
    found = []
    for name, tree in _modules():
        module_names = module_level_names(tree)
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Global)
            or (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name)
                and node.value.id in module_names
            )
        ]
    assert not found, f"module state changed in src/: {found}"


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


def piforge_imports(tree: ast.Module) -> set[str]:
    """The names a module imports from piforge: the module of a relative or
    ``piforge.<module>`` import, or each name imported from the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(
                alias.name.removeprefix("piforge.")
                for alias in node.names
                if alias.name.startswith("piforge.")
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("piforge"):
                continue
            module = module.removeprefix("piforge").removeprefix(".")
            found.update([module] if module else [alias.name for alias in node.names])
    return found


def test_exact_layer_imports_only_itself():
    outside = {
        f"{name} imports {module}"
        for name, tree in _modules()
        if name.removesuffix(".py") in EXACT_LAYER
        for module in piforge_imports(tree) - EXACT_LAYER
    }
    assert not outside, f"the exact layer imports outside itself: {sorted(outside)}"


def import_module_names(tree: ast.Module) -> list[str]:
    """The module names that ``import_module`` or ``__import__`` calls under
    ``tree`` are given as a string or an f-string; an f-string stands for its
    text after the last replacement field, such as ``.cli`` for
    ``f"{__package__}.cli"``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in ("import_module", "__import__"):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.JoinedStr) and arg.values:
            arg = arg.values[-1]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            found.append(arg.value)
    return found


def test_no_module_imports_the_entry():
    found = [
        name
        for name, tree in _modules()
        if "cli" in piforge_imports(tree)
        or any(target in ("piforge.cli", ".cli") for target in import_module_names(tree))
    ]
    assert not found, f"modules that import piforge.cli: {found}"


def import_time_imports(tree: ast.Module) -> set[str]:
    """The piforge modules that ``tree`` imports as it is imported: by an
    import statement or an ``import_module`` call outside every function
    body."""
    found = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= piforge_imports(node)
        elif isinstance(node, ast.Call):
            found.update(name.rpartition(".")[2] for name in import_module_names(node))
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_no_module_imports_a_kernel_at_import():
    found = sorted(
        f"{name} imports {module}"
        for name, tree in _modules()
        for module in import_time_imports(tree) & KERNELS
    )
    assert not found, f"kernels imported outside the function that runs them: {found}"


def test_each_rule_has_one_home():
    import piforge
    from piforge import closed_forms, exact_verifier, gupta_series, special_numbers

    assert piforge.prefactor is gupta_series.prefactor is closed_forms.prefactor
    assert exact_verifier.required_table_k is special_numbers.required_table_k


def test_n_factorial_has_one_source():
    """n! comes from ``math.factorial`` in the library and in its oracles
    alike: no module of ``src/`` or ``tests/`` defines a ``factorial`` or
    imports one from anywhere else."""
    found = []
    for path in sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.FunctionDef) and node.name == "factorial":
                found.append(f"{path.name}:{node.lineno} defines factorial")
            elif isinstance(node, ast.ImportFrom) and node.module != "math":
                if any(alias.name == "factorial" for alias in node.names):
                    found.append(f"{path.name}:{node.lineno} from {node.module}")
    assert not found, f"a second n!: {found}"


def test_each_export_resolves_to_its_module():
    import piforge

    for name in piforge.__all__:
        home = importlib.import_module(f"piforge.{piforge._HOME[name]}")
        assert getattr(piforge, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="no attribute 'factorial'"):
        piforge.factorial


def test_no_module_imports_rationals_at_the_top():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in tree.body
        if isinstance(node, ast.Import) and RATIONALS & {alias.name for alias in node.names}
        or isinstance(node, ast.ImportFrom) and node.module in RATIONALS
    ]
    assert not found, f"module-level imports of {sorted(RATIONALS)}: {found}"


def rational_imports(node: ast.AST) -> list[str]:
    """The modules of ``RATIONALS`` that imports anywhere under ``node`` load."""
    found = []
    for child in ast.walk(node):
        if isinstance(child, ast.Import):
            found += [alias.name for alias in child.names if alias.name in RATIONALS]
        elif isinstance(child, ast.ImportFrom) and child.module in RATIONALS:
            found.append(child.module)
    return found


def test_only_the_fraction_makers_import_fractions():
    """Each import of ``fractions``, ``numbers`` or ``decimal`` in ``src/`` is
    one of ``fractions`` in a function of ``FRACTION_MAKERS``; a module's name
    stands for an import outside its functions."""
    found = {}
    for name, tree in _modules():
        module = name.removesuffix(".py")
        functions = [(f"{module}.{node.name}", node) for node in tree.body
                     if isinstance(node, ast.FunctionDef)]
        functions += [(f"{cls.name}.{node.name}", node) for cls in top_level_classes(tree)
                      for node in cls.body if isinstance(node, ast.FunctionDef)]
        inside = {qualified: rational_imports(node) for qualified, node in functions}
        found.update((qualified, names) for qualified, names in inside.items() if names)
        outside = len(rational_imports(tree)) - sum(map(len, inside.values()))
        if outside:
            found[module] = outside
    assert found == dict.fromkeys(FRACTION_MAKERS, ["fractions"])
