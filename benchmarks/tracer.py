"""In-memory spans for the traced benchmark run, and the per-layer table.

The tracer wraps public functions of the package by replacing every module
attribute that holds them, in each ``ipd`` module, so a caller that looks a
name up at call time (``utility_gain`` importing ``solve_perfect_privacy``,
``cli`` calling its imported ``solve_binary``) reaches the wrapper. Nothing
under ``src`` is edited; ``restore`` puts the originals back.

A span is ``[name, start, end, parent, op]``: the parent is the index of the
enclosing span, and every span of one operation carries that operation's id.
Spans stay in memory until the run writes them out. A target whose function
no longer exists is listed in ``absent`` and the metrics built on it read as
absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time

# (span name, places to find the function, first match wins). Span names
# are "<layer>.<function>"; the layers are the package's modules.
TARGETS = (
    *(("serialize." + f, (("ipd.serialize", f),)) for f in (
        "read_json", "decode_prior", "decode_structure", "decode_mechanism",
        "encode_structure", "encode_mechanism")),
    *(("model." + f, (("ipd.model", f),)) for f in (
        "load_prior", "structure_to_mechanism", "posterior_summary",
        "compress", "sample_signal")),
    *(("binary." + f, (("ipd.binary", f),)) for f in (
        "solve_binary", "solve_perfect_privacy")),
    *(("general." + f, (("ipd.general", f),)) for f in (
        "solve_general", "enumerate_assignments", "assemble_lp", "solve_lp")),
    # The LP backend, wherever the general solver finds it: bound at import
    # today, looked up in scipy.optimize if the import becomes lazy.
    ("general.linprog", (("ipd.general", "linprog"), ("scipy.optimize", "linprog"))),
    *(("analysis." + f, (("ipd.analysis", f),)) for f in (
        "utility_gain", "expected_utility", "check_ip", "check_regions")),
    *(("oracle." + f, (("ipd.oracle", f),)) for f in (
        "binary_grid_oracle", "random_structure_oracle")),
)

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.status: dict[int, int] = {}  # span index -> linprog status
        self.absent: list[str] = []
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def begin(self, name: str) -> int | None:
        if not self.enabled:
            return None
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int | None) -> None:
        if index is None:
            return
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # Time each step of the generator, not its creation.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                steps = fn(*args, **kwargs)
                while True:
                    index = self.begin(name)
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        self.end(index)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if index is not None and hasattr(result, "status"):
                self.status[index] = result.status
            return result

        return wrapper

    def install(self) -> None:
        self.absent = []
        for name, places in TARGETS:
            for module_name, attr in places:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if callable(original):
                    break
            else:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (
                    mod_name == module_name or mod_name == "ipd" or mod_name.startswith("ipd.")
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def restore(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


class Table:
    """Per-layer numbers computed from one run's spans.

    ``ops`` maps an operation id to its tags (workload, arith, n, command,
    ...). Each metric is None when a function it needs is absent or was
    never called.
    """

    def __init__(self, tracer: Tracer, ops: dict[int, dict]):
        self.tracer = tracer
        self.ops = ops
        self.children: dict[int, float] = {}
        self.by_name: dict[str, list[int]] = {}
        for i, span in enumerate(tracer.spans):
            self.by_name.setdefault(span[NAME], []).append(i)
            if span[PARENT] is not None:
                self.children[span[PARENT]] = self.children.get(span[PARENT], 0.0) + span[END] - span[START]

    def spans(self, name: str, **where) -> list[int]:
        return [
            i for i in self.by_name.get(name, ())
            if all(self.ops.get(self.tracer.spans[i][OP], {}).get(k) == v for k, v in where.items())
        ]

    def duration(self, i: int) -> float:
        s = self.tracer.spans[i]
        return s[END] - s[START]

    def self_time(self, i: int) -> float:
        return self.duration(i) - self.children.get(i, 0.0)

    def mean(self, name: str, scale: float, self_only=False, **where) -> float | None:
        found = self.spans(name, **where)
        if not found:
            return None
        time_of = self.self_time if self_only else self.duration
        return scale * statistics.fmean(time_of(i) for i in found)

    def per(self, name: str, per_name: str, scale: float = 1.0, count=False, **where) -> float | None:
        found, base = self.spans(name, **where), self.spans(per_name, **where)
        if not found or not base:
            return None
        total = len(found) if count else sum(self.duration(i) for i in found)
        return scale * total / len(base)

    def ops_where(self, **where) -> int:
        return sum(1 for tags in self.ops.values() if all(tags.get(k) == v for k, v in where.items()))

    def calls_per_op(self, name: str, **where) -> float | None:
        n_ops = self.ops_where(**where)
        if name in self.tracer.absent or not n_ops:
            return None
        return len(self.spans(name, **where)) / n_ops


US, MS = 1e6, 1e3


def layer_metrics(table: Table, commands) -> dict[str, tuple[float | None, str]]:
    """Every per-layer metric of the traced run: name -> (value, unit).

    The ``cli`` start-up numbers come from child processes, not spans, and
    are added by the caller.
    """
    t = table
    m: dict[str, tuple[float | None, str]] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for f in ("read_json", "decode_prior", "decode_structure", "decode_mechanism",
              "encode_structure", "encode_mechanism"):
        put(f"serialize.{f}_us", t.mean(f"serialize.{f}", US), "us")

    for arith in ("exact", "float"):
        for f in ("load_prior", "structure_to_mechanism", "posterior_summary"):
            put(f"model.{f}_us.{arith}", t.mean(f"model.{f}", US, arith=arith), "us")
    point = {"sweep_point": True, "positive_budget": True}
    put("model.posterior_summary.calls_per_point", t.calls_per_op("model.posterior_summary", **point), "count")
    put("model.sample_signal_ms", t.mean("model.sample_signal", MS), "ms")
    put("model.compress_us", t.mean("model.compress", US), "us")

    for arith in ("exact", "float"):
        put(f"binary.solve_binary_us.{arith}", t.mean("binary.solve_binary", US, arith=arith), "us")
    put("binary.solve_perfect_privacy_us", t.mean("binary.solve_perfect_privacy", US), "us")
    put("binary.solve_binary.calls_per_point", t.calls_per_op("binary.solve_binary", **point), "count")
    put("binary.solve_perfect_privacy.calls_per_point",
        t.calls_per_op("binary.solve_perfect_privacy", **point), "count")

    for n in (2, 3):
        put(f"general.lps_per_solve.n{n}", t.per("general.linprog", "general.solve_general", count=True, n=n), "count")
    lps = t.spans("general.linprog")
    optimal = sum(1 for i in lps if t.tracer.status.get(i) == 0)
    solves = t.spans("general.solve_general")
    put("general.lp_optimal_ratio", optimal / len(lps) if lps else None, "ratio")
    put("general.lp_useful_ratio", len(solves) / len(lps) if lps and solves else None, "ratio")
    for f in ("enumerate_assignments", "assemble_lp", "solve_lp"):
        short = "enumerate" if f == "enumerate_assignments" else f
        put(f"general.{short}_ms_per_solve", t.per(f"general.{f}", "general.solve_general", MS), "ms")
    highs = t.per("general.linprog", "general.solve_general", MS)
    put("general.highs_ms_per_solve", highs, "ms")
    solve_lp = m["general.solve_lp_ms_per_solve"][0]
    put("general.solve_lp_overhead_ms_per_solve",
        solve_lp - highs if solve_lp is not None and highs is not None else None, "ms")
    put("general.solve_general_self_ms", t.mean("general.solve_general", MS, self_only=True), "ms")

    for arith in ("exact", "float"):
        for f in ("utility_gain", "expected_utility", "check_ip", "check_regions"):
            put(f"analysis.{f}_us.{arith}", t.mean(f"analysis.{f}", US, arith=arith), "us")
    put("analysis.utility_gain_self_us", t.mean("analysis.utility_gain", US, self_only=True), "us")
    put("analysis.utility_fn_ctor_us", t.mean("analysis.UtilityFn", US), "us")

    for command in commands:
        put(f"cli.main_ms.{command}", t.mean("cli.main", MS, command=command), "ms")

    put("oracle.grid_ms", t.mean("oracle.binary_grid_oracle", MS), "ms")
    put("oracle.random_ms", t.mean("oracle.random_structure_oracle", MS), "ms")
    return m
