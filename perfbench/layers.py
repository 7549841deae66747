"""Per-layer measurement for the traced run: spans, counts and a
microbenchmark of the interval operations.

Nothing here edits piforge.  Spans are recorded by wrappers that the
benchmark installs around the public functions of each module, for the
length of one pass, in every namespace that holds them: a function imported
by name (``piforge.cli.partial_sum``, ``piforge.exact_verifier.beta_pi_coeff``)
has to be replaced where it is called from.  A span is a name, a start, an
end and the index of its parent span; a layer's self time is its spans'
durations minus the time their child spans cover, so the layers' self times
add up to the time of the root spans (``cli.main``).

Interval operations run millions of times per job, so they are not timed
inside jobs.  A separate pass only counts them, and ``microbench`` times
them on operands like those the workloads produce.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import io
import itertools
import os
import random
import statistics
import threading
import time
from array import array
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import factorial

LAYERS = (
    "cli",
    "report",
    "special_numbers",
    "exact_core",
    "closed_forms",
    "exact_verifier",
    "gupta_series",
    "prior_series",
    "numeric_engine",
)

# Public methods that do a layer's work; other methods are interval
# operations (counted, not timed) or trivial accessors.
TRACED_METHODS = {
    "special_numbers": {"TableStore": ("euler", "bernoulli")},
    "numeric_engine": {"PrecisionContext": ("pi", "pi_power", "inv_pi_squared")},
}

COUNTED_OPS = {
    "add": ("CertifiedReal", "__add__"),
    "sub": ("CertifiedReal", "__sub__"),
    "mul": ("CertifiedReal", "__mul__"),
    "mul_ratio": ("CertifiedReal", "mul_ratio"),
    "from_rational": ("PrecisionContext", "from_rational"),
}


def _modules():
    return {name: importlib.import_module(f"piforge.{name}") for name in LAYERS}


def _public_callables():
    """(layer, qualified name, owner, attribute, function) for every public
    function and traced method of the package."""
    found = []
    for layer, mod in _modules().items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                found.append((layer, f"{layer}.{attr}", mod, attr, obj))
        for cls_name, methods in TRACED_METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for attr in methods:
                found.append((layer, f"{layer}.{cls_name}.{attr}", cls, attr, vars(cls)[attr]))
    return found


class _Patch:
    """Replaces objects by identity in every piforge namespace; undone by
    ``restore``."""

    def __init__(self):
        self._undo = []
        self._namespaces = [importlib.import_module("piforge"), *_modules().values()]

    def replace(self, owner, attr, original, wrapper):
        targets = [owner] if inspect.isclass(owner) else self._namespaces
        for ns in targets:
            for name, value in list(vars(ns).items()):
                if value is original:
                    self._undo.append((ns, name, value))
                    setattr(ns, name, wrapper)

    def restore(self):
        for ns, name, value in reversed(self._undo):
            setattr(ns, name, value)
        self._undo.clear()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Counters:
    """Per-pass counts recorded at the same boundaries as the spans."""

    def __init__(self):
        self.values = defaultdict(int)
        self.distinct_terms = 0
        self._seen = defaultdict(set)
        self._series = {}

    def new_job(self):
        """Memo tables and caches start empty in every CLI process."""
        self.distinct_terms += sum(self._series.values())
        self._seen.clear()
        self._series.clear()

    def seen(self, key, value) -> None:
        self.values[key + "_calls"] += 1
        if value in self._seen[key]:
            self.values[key + "_repeats"] += 1
        else:
            self._seen[key].add(value)

    def series(self, key, N) -> None:
        self.values["gupta_terms"] += N
        self._series[key] = max(N, self._series.get(key, 0))

    def hooks(self):
        v = self.values

        def generated(args, kwargs, result):
            base = kwargs.get("base")
            v["entries_generated"] += len(result.values) - (len(base.values) if base else 1)
            v["cache_misses"] += 1

        def summands(args, kwargs, result):
            v["summand_bits"] += sum(q.numerator.bit_length() + q.denominator.bit_length() for q in result)

        def reduced(args, kwargs, result):
            v["identities"] += 1
            v["failed"] += not result.holds

        def add(key, amount):
            v[key] += amount

        def rendered(args, kwargs, result):
            add("report_rows", len(_arg(args, kwargs, 0, "rows")))
            add("report_bytes", len(result.encode()))

        return {
            "exact_core.factorial": lambda a, k, r: self.seen("factorial", a[0]),
            "exact_core.binomial": lambda a, k, r: self.seen("binomial", (a[0], a[1])),
            "closed_forms.beta_pi_coeff": lambda a, k, r: self.seen("coeff", ("beta", a[0])),
            "closed_forms.zeta_pi_coeff": lambda a, k, r: self.seen("coeff", ("zeta", a[0])),
            "exact_verifier.reduction_summands": summands,
            "exact_verifier.reduce_exact": reduced,
            "special_numbers.euler_numbers": generated,
            "special_numbers.bernoulli_numbers": generated,
            "special_numbers.save_cache": lambda a, k, r: add("cache_bytes", os.path.getsize(_arg(a, k, 1, "path"))),
            "special_numbers.TableStore.euler": lambda a, k, r: add("table_requests", 1),
            "special_numbers.TableStore.bernoulli": lambda a, k, r: add("table_requests", 1),
            "gupta_series.partial_sum": lambda a, k, r: self.series(("gupta", a[0], a[1]), a[2]),
            "gupta_series.classical_partial": lambda a, k, r: self.series(("classical", a[0]), a[1]),
            "prior_series.alzer_h_partial": lambda a, k, r: add("prior_terms", a[0]),
            "prior_series.alzer_H_partial": lambda a, k, r: add("prior_terms", a[0]),
            "prior_series.kolbig_partial": lambda a, k, r: add("prior_terms", a[0]),
            "prior_series.alzer_koumandos_partial": lambda a, k, r: add("prior_terms", a[1] + 1),
            "report.render_report": rendered,
        }


class SpanRecorder:
    """Spans of the main thread, kept in flat arrays for one job at a time
    and folded into per-function totals after the job."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.first_pi_s = 0.0
        self.discard()

    def discard(self):
        """Drop spans not yet folded, such as those of the set-up between jobs."""
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []

    def wrap(self, qualified, fn, hook):
        nid = self._ids.setdefault(qualified, len(self._ids))
        main = threading.main_thread().ident
        get_ident = threading.get_ident
        clock = time.perf_counter
        rec = self

        def traced(*args, **kwargs):
            if get_ident() != main:
                return fn(*args, **kwargs)
            stack = rec.stack
            idx = len(rec.starts)
            rec.name_ids.append(nid)
            rec.parents.append(stack[-1] if stack else -1)
            rec.ends.append(0.0)
            stack.append(idx)
            rec.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def fold_job(self):
        """Add the finished job's spans to the totals."""
        n = len(self.starts)
        names = list(self._ids)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                children[parent] += durations[i]
        first_pi = None
        for i in range(n):
            name = names[self.name_ids[i]]
            self.inclusive[name] += durations[i]
            self.self_time[name] += durations[i] - children[i]
            if first_pi is None and name.endswith((".pi_power", ".inv_pi_squared")):
                first_pi = durations[i]
        self.first_pi_s += first_pi or 0.0
        self.discard()


def install_spans(recorder: SpanRecorder, counters: Counters) -> _Patch:
    patch = _Patch()
    hooks = counters.hooks()
    for layer, qualified, owner, attr, fn in _public_callables():
        patch.replace(owner, attr, fn, recorder.wrap(qualified, fn, hooks.get(qualified)))
    return patch


def install_op_counters(counts: dict) -> _Patch:
    """Count interval operations without timing them; itertools.count
    increments atomically, so worker threads lose no update."""
    patch = _Patch()
    engine = importlib.import_module("piforge.numeric_engine")
    for op, (cls_name, attr) in COUNTED_OPS.items():
        cls = getattr(engine, cls_name)
        fn = vars(cls)[attr]
        counter = counts.setdefault(op, itertools.count())

        def counted(*args, _fn=fn, _next=counter.__next__, **kwargs):
            _next()
            return _fn(*args, **kwargs)

        patch.replace(cls, attr, fn, counted)
    return patch


def fresh_process_state() -> None:
    """Empty the package's memo tables and caches, as a new CLI process
    would find them."""
    for mod in _modules().values():
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()
    exact_core = importlib.import_module("piforge.exact_core")
    exact_core.set_memo_cap(exact_core.set_memo_cap(0))


def run_in_process(argv, cache_dir: str, before=None) -> tuple[float, int, bytes]:
    """Seconds, exit code and stdout of ``piforge.cli.main(argv)``, started
    from the state of a new process; ``before`` runs just ahead of the clock."""
    cli = importlib.import_module("piforge.cli")
    os.environ["PIFORGE_CACHE_DIR"] = cache_dir
    fresh_process_state()
    gc.collect()
    if before is not None:
        before()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(list(argv))
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue().encode("utf-8")


def microbench(seed: int) -> dict[str, float]:
    """Nanoseconds per add, mul, mul_ratio and from_rational at 128 and 1024
    bits, on operands shaped like the summation kernel's: accumulators near
    pi^p, Horner variables 1 / (base^2 pi^2), factorial weights and the
    prefactor-over-base^p rationals.  Median of five timings of 4,000
    operations each, minus the cost of the bare loop."""
    rounds, reps = 5, 4000
    from piforge.gupta_series import prefactor
    from piforge.numeric_engine import PrecisionContext

    rng = random.Random(f"microbench:{seed}")
    out = {}
    for bits in (128, 1024):
        ctx = PrecisionContext(bits)
        inv_pi2 = ctx.inv_pi_squared()
        cases = []
        for _ in range(64):
            p, k, n = rng.randint(1, 6), rng.randint(0, 8), rng.randint(1, 100_000)
            base = 2 * n - 1 if p % 2 else n
            acc = ctx.pi_power(p).mul_ratio(rng.randint(1, 999), 1000)
            x = inv_pi2.mul_ratio(1, base * base)
            w = ctx.from_rational(Fraction(1, factorial(2 * k + 1)))
            q = prefactor(p, k) * Fraction(1, base**p)
            cases.append((acc, x, w, q, 2 * k + 1, 2 * k + 2))
        cases = cases * (reps // len(cases))
        loops = {
            "add": lambda: [acc + x for acc, x, w, q, a, b in cases],
            "mul": lambda: [x * w for acc, x, w, q, a, b in cases],
            "mul_ratio": lambda: [acc.mul_ratio(a, b) for acc, x, w, q, a, b in cases],
            "from_rational": lambda: [ctx.from_rational(q) for acc, x, w, q, a, b in cases],
            "loop": lambda: [acc for acc, x, w, q, a, b in cases],
        }
        timings = {}
        for name, loop in loops.items():
            samples = []
            for _ in range(rounds):
                start = time.perf_counter_ns()
                loop()
                samples.append((time.perf_counter_ns() - start) / len(cases))
            timings[name] = statistics.median(samples)
        for name in COUNTED_OPS:
            if name in timings:
                out[f"numeric_engine.{name}_ns.b{bits}"] = max(timings[name] - timings["loop"], 0.0)
    return out
