"""Benchmark for the ipd package: seeded workloads, one command, one result.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload binary-sweep --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``binary-sweep`` (closed-form sweep points),
``general-lp`` (``solve_general`` calls) and ``cli`` (``python -m ipd.cli``
child processes). Each is a closed loop with one client in this process;
``cli`` adds one child process at a time. A run measures whole cycles of
operations until ``--seconds`` have passed, checks every operation's output
outside the timed region, prints a report, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``class_a.p50_ms.ref`` / ``class_b.p50_ms.ref``: median latency of the
  workload's two operation classes (binary-sweep: exact / float points;
  general-lp: n=3 / n=2 solves; cli: commands without an LP /
  ``solve-general``);
* ``ops_per_s.ref``: operations per second of operation time;
* ``setup_s``: median over several child processes of the time from
  process start to the first timed operation: interpreter start, importing
  ``ipd``, generating the inputs and constructing the utilities.

All four are scaled to a reference machine speed by a ruler timed between
the operations of the same run (see ruler.py), because the shared machines
this runs on change speed by tens of percent from one minute to the next.
The report above the JSON line gives the wall times as measured, with the
ruler's scale, under the issue-level names ``sweep.exact.point_ms.p50`` and
so on, with sample counts, and ``fail_ratio``, the failed share of attempted
operations. It also gives each class's tail: the highest of p99.9, p99, p90,
p75 and p50 that has at least ten operations beyond it. Tails are reported
but not part of the result line, because from run to run they spread wider
than any bound a regression check could hold them to.

``--trace 1`` is a separate run. It times a first pass of the workload
untraced, replays the same operations with spans recorded around the
package's public functions, adds one traced cycle of each other workload
and the ``cli`` start-up probes so that every layer is measured, and
reports the per-layer metrics of BENCHMARK.json. The full per-layer table,
the tracing overhead (traced minus untraced time of the replayed
operations) and the spans are written to ``.bench_out/``.

Seed 1 is the seed benchmark changes are tuned on; seed 2 is held out, so a
gain claimed on seed 1 can be re-checked on inputs its author did not see.
Every result is stamped with the commit, the source digest, the core count,
the Python/numpy/scipy versions, the seed and the operation counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")

TUNING_SEED = 1
HELD_OUT_SEED = 2
SETUP_PROBES = 5
STARTUP_PROBES = 3
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)

# One BLAS thread here and in every child, so numpy never competes with the
# benchmark for the machine's second core. Must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Issue-level names per workload: (prefix, unit, scale from seconds,
# (label or None for all operations, statistic) pairs, throughput name).
NAMED = {
    "binary-sweep": ("sweep", "point_ms", 1e3,
                     (("exact", "p50"), ("exact", "tail"), ("float", "p50"), ("float", "tail")),
                     "sweep.points_per_s"),
    "general-lp": ("general", "solve_s", 1.0,
                   (("n3_float", "p50"), ("n3_exact", "p50"), ("n2", "p50"), (None, "tail")),
                   "general.solves_per_s"),
    "cli": ("cli", "wall_s", 1.0,
            (("nolp", "p50"), ("nolp", "tail"), ("lp", "p50")),
            "cli.commands_per_s"),
}


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = pct / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder rung with ten samples beyond.

    Fewer than twenty samples fall back to the median.
    """
    for pct in TAIL_LADDER:
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


class Run:
    """Timings and failures of one run, by operation."""

    def __init__(self) -> None:
        self.records: list[tuple] = []  # (op, seconds, error or None)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> list[str]:
        return [f"{op.workload}/{op.label}: {err}" for op, _, err in self.records if err]

    def times(self, label=None, cls=None) -> list[float]:
        return [
            dt for op, dt, _ in self.records
            if (label is None or op.label == label) and (cls is None or op.cls == cls)
        ]

    def execute(self, op, fn, tracer=None, op_id=None, tags=None) -> float:
        if tracer is not None:
            tracer.op = op_id
            tags[op_id] = {"workload": op.workload, "label": op.label, **op.tags}
            tracer.enabled = True
        start = time.perf_counter()
        try:
            if tracer is not None and op.workload == "cli":
                index = tracer.begin("cli.main")
                try:
                    out = fn()
                finally:
                    tracer.end(index)
            else:
                out = fn()
            err = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        self.records.append((op, elapsed, err))
        return elapsed


def loop(workload, seconds: float, run: Run, ruler) -> None:
    """Run whole cycles until `seconds` have passed, ruling between operations."""
    deadline = time.perf_counter() + seconds
    cycles = 0
    while True:
        for op in workload.cycle(cycles):
            ruler.after(run.execute(op, op.run))
        cycles += 1
        if time.perf_counter() >= deadline:
            return


def timed_metrics(name: str, run: Run, ruler, setup: list[float], setup_ruler) -> tuple[dict, list[str]]:
    a, b, every = run.times(cls="a"), run.times(cls="b"), run.times()
    ops_per_s = len(every) / sum(every)
    setup_s = statistics.median(setup)
    metrics = {
        "class_a.p50_ms.ref": (1e3 * statistics.median(a) * ruler.scale, "ms"),
        "class_b.p50_ms.ref": (1e3 * statistics.median(b) * ruler.scale, "ms"),
        "ops_per_s.ref": (ops_per_s / ruler.scale, "1/s"),
        "setup_s": (setup_s * setup_ruler.scale, "s"),
    }
    prefix, unit, scale, stats, throughput = NAMED[name]
    unit_name = unit.split("_")[-1]
    lines = ["wall times as measured:"]
    for label, stat in stats:
        values = run.times(label=label)
        key = f"{prefix}.{label}.{unit}" if label else f"{prefix}.{unit}"
        if stat == "p50":
            lines.append(f"  {key}.p50 = {scale * statistics.median(values):.6g} {unit_name} (n={len(values)})")
        else:
            pct, value = tail(values)
            lines.append(f"  {key}.tail = {scale * value:.6g} {unit_name} (p{pct:g}, n={len(values)})")
    lines.append(f"  {throughput} = {ops_per_s:.6g} 1/s (n={len(every)})")
    lines.append(f"  setup_s = {setup_s:.6g} s (median of {len(setup)} set-ups)")
    lines.append(f"fail_ratio = {len(run.failures) / run.attempted:.6g} ({len(run.failures)}/{run.attempted})")
    lines.append(f"operations: {ruler.describe()}")
    lines.append(f"set-up: {setup_ruler.describe()}")
    lines.append("at the reference speed:")
    for key, (value, unit_text) in metrics.items():
        lines.append(f"  {key} = {value:.6g} {unit_text}")
    return metrics, lines


def setup_probe(args) -> float:
    """Wall time of a child that sets the workload up and exits."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def startup_probes(env: dict) -> dict[str, tuple[float, str]]:
    """Interpreter start and import costs, from child processes."""
    start_ms, ipd_ms, scipy_ms = [], [], []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=60)
        start_ms.append(1e3 * (time.perf_counter() - t0))
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ipd"],
            cwd=ROOT, env=env, check=True, timeout=60, capture_output=True, text=True,
        )
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        ipd_ms.append(cumulative["ipd"] / 1e3)
        # Zero when importing ipd does not import scipy.optimize at all.
        scipy_ms.append(cumulative.get("scipy.optimize", 0) / 1e3)
    return {
        "cli.interpreter_start_ms": (statistics.median(start_ms), "ms"),
        "cli.import_ipd_ms": (statistics.median(ipd_ms), "ms"),
        "cli.import_scipy_optimize_ms": (statistics.median(scipy_ms), "ms"),
    }


def traced_run(args, workloads_mod, tracer_mod, built: dict, run: Run):
    """Paired untraced and traced cycles, then a census of the other workloads.

    Each cycle of the workload runs once untraced and once traced, after one
    warm-up cycle, so the tracing overhead compares the same operations at
    the same point of the run.
    """
    import ipd

    workload = built[args.workload]
    inproc = args.workload == "cli"
    tracer = tracer_mod.Tracer()
    tags: dict[int, dict] = {0: {"workload": "setup"}}
    untraced, traced, census = Run(), Run(), Run()

    def replay(ops, part, traced_pass, op_id=None):
        for op in ops:
            fn = op.inproc if op.inproc and (inproc or traced_pass) else op.run
            if traced_pass:
                part.execute(op, fn, tracer, op_id, tags)
                op_id += 1
            else:
                part.execute(op, fn)
        return op_id

    replay(workload.cycle(0), Run(), False)  # warm-up, not reported
    with tracer.installed():
        tracer.op, tracer.enabled = 0, True
        for _ in range(20):
            for family in workloads_mod.FAMILIES:
                index = tracer.begin("analysis.UtilityFn")
                ipd.UtilityFn(family)
                tracer.end(index)
        tracer.enabled = False
    op_id = 1
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        replay(workload.cycle(k), untraced, False)
        with tracer.installed():
            op_id = replay(workload.cycle(k), traced, True, op_id)
        k += 1
        if time.perf_counter() >= deadline:
            break
    with tracer.installed():
        for name, other in built.items():
            if name != args.workload:
                op_id = replay(other.cycle(0), census, True, op_id)
    for part in (untraced, traced, census):
        run.records.extend(part.records)

    table = tracer_mod.Table(tracer, tags)
    layers = tracer_mod.layer_metrics(table, workloads_mod.COMMANDS)
    layers.update(startup_probes(built["cli"].env))
    t0 = sum(untraced.times())
    t1 = sum(traced.times())
    n = len(traced.records)
    layers["trace.overhead_pct"] = (100.0 * (t1 / t0 - 1.0), "%")
    layers["trace.overhead_ms_per_op"] = (1e3 * (t1 - t0) / n, "ms")
    lines = [f"per-layer table ({len(tracer.spans)} spans, {n} replayed operations):"]
    for key, (value, unit) in layers.items():
        shown = "absent" if value is None else f"{value:.6g} {unit}"
        lines.append(f"  {key} = {shown}")
    lines.append(f"tracing overhead = {t1 - t0:.6g} s over {n} operations "
                 f"({t0:.6g} s untraced, {t1:.6g} s traced)")
    if tracer.absent:
        lines.append(f"absent functions: {', '.join(tracer.absent)}")
    lines.append(f"fail_ratio = {len(run.failures) / run.attempted:.6g} ({len(run.failures)}/{run.attempted})")
    spans = {"fields": ["name", "start", "end", "parent", "op"], "ops": tags, "spans": tracer.spans}
    return layers, lines, spans


def stamp(args, run: Run) -> dict:
    import numpy
    import scipy

    commit = None  # a checkout without .git is identified by src_sha256 alone
    if os.path.exists(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            if done.returncode == 0:
                commit = done.stdout.strip()
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for fname in sorted(files):
            if fname.endswith(".py"):
                with open(os.path.join(folder, fname), "rb") as fh:
                    digest.update(fname.encode() + fh.read())
    samples: dict[str, int] = {}
    for op, _, _ in run.records:
        key = f"{op.workload}/{op.label}"
        samples[key] = samples.get(key, 0) + 1
    role = {TUNING_SEED: "tuning", HELD_OUT_SEED: "held-out"}.get(args.seed, "other")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seed_role": role,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": run.attempted,
        "samples": samples,
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_reference() -> dict[str, float]:
    with open(os.path.join(HERE, "reference_n3.json"), encoding="utf-8") as fh:
        return json.load(fh)["utilities"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ipd", "__init__.py")):
        print(f"no ipd sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ipd

    if not os.path.abspath(ipd.__file__).startswith(SRC + os.sep):
        print(f"imported ipd from {ipd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import ruler as ruler_mod
    import tracer as tracer_mod
    import workloads as workloads_mod

    if args.workload not in workloads_mod.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads_mod.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(TMP_DIR, exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=TMP_DIR) as tmp:
            workloads_mod.build(args.workload, args.seed, ROOT, tmp, load_reference()).cycle(0)
        return 0

    spec = load_spec()
    setup_ruler = ruler_mod.Ruler("process", ROOT, every_s=0.0)
    setup = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        setup_ruler.measure()
        setup.append(setup_probe(args))
    run = Run()
    with tempfile.TemporaryDirectory(dir=TMP_DIR) as tmp:
        reference = load_reference()
        if args.trace:
            built = {
                name: workloads_mod.build(name, args.seed, ROOT, tmp, reference)
                for name in workloads_mod.WORKLOADS
            }
            metrics, lines, spans = traced_run(args, workloads_mod, tracer_mod, built, run)
            wanted = spec["per_layer"]
        else:
            workload = workloads_mod.build(args.workload, args.seed, ROOT, tmp, reference)
            ruler = ruler_mod.Ruler(workload.ruler, ROOT, workload.rule_every_s)
            ruler.measure()
            loop(workload, args.seconds, run, ruler)
            metrics, lines = timed_metrics(args.workload, run, ruler, setup, setup_ruler)
            spans = None
            wanted = spec["end_to_end"]

    record = {"stamp": stamp(args, run), "report": lines,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "failures": run.failures[:50],
              "latencies_s": {label: run.times(label=label)
                              for label in sorted({op.label for op, _, _ in run.records})}}
    os.makedirs(OUT_DIR, exist_ok=True)
    base = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(base + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    print("stamp: " + json.dumps(record["stamp"], sort_keys=True))
    for line in lines:
        print(line)
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}")
    result = {}
    for entry in wanted:
        value = metrics.get(entry["name"], (None, None))[0]
        if value is None:
            print(f"metric {entry['name']} is absent", file=sys.stderr)
            continue
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
    failed = len(run.failures)
    print(json.dumps({
        "correct": failed == 0 and len(result) == len(wanted),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
