"""Seeded inputs, operations and correctness checks for the three workloads.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returned. Inputs come from the workload seed
alone; ``Workload.cycle(k)`` returns the same operations for the same seed
and cycle index, so a traced run can replay exactly the operations an
untraced pass timed.

Every call into the package goes through a module attribute looked up at
call time (``ipd.solve_general``), never a name bound at import, so the
tracer's wrappers see the benchmark's own calls too.

binary-sweep
    One operation is one (prior, budget) point of a privacy-utility sweep:
    ``utility_gain`` for each built-in family, then
    ``structure_to_mechanism``, ``check_ip`` and ``check_regions`` on the
    budgeted optimum. A cycle sweeps one exact prior (``Fraction`` masses
    and conditionals, 51 exact rational ratio bounds) and then one float
    prior over the ``ipd sweep`` default grid ``0:2.5:0.05``. Class a is
    the exact points, class b the float points.
general-lp
    One operation is one ``solve_general`` call. A cycle is an n=3 float
    prior, an n=3 exact prior with an exact ratio bound, and N2_PER_CYCLE
    n=2 float priors. The utility family rotates from one operation to the
    next, so every family takes an even share of each class in a run.
    Class a is the n=3 solves, class b the n=2 solves; the cheap n=2 solves
    are repeated so that their median rests on enough samples.
cli
    One operation is one ``python -m ipd.cli`` child process. A cycle runs
    the seven commands of ``COMMANDS`` that need no LP against one of the
    documents written from the seed, then ``solve-general`` against
    LP_PER_CYCLE of them. Class a is the commands without an LP, class b is
    ``solve-general``, repeated so that its median rests on enough samples.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import ipd
import ipd.cli
import ipd.oracle
import ipd.serialize

FAMILIES = ("abs", "quadratic", "negentropy")

# The package's tolerance ladder, restated so the checks do not depend on
# names the package may drop: verification slack and cross-path agreement.
CHECK_TOL = 1e-9
PATH_TOL = 1e-7

SWEEP_POINTS = 51  # the grid 0:2.5:0.05
SWEEP_STEP = 0.05
GENERAL_EPS = (0.25, 0.5, 1.0)
GENERAL_EXP_EPS = (Fraction(5, 4), Fraction(3, 2), Fraction(2))
CLI_EXACT_EPS = ("ln1.25", "ln1.5", "ln2")
CLI_FLOAT_EPS = ("0.25", "0.5", "1.0")
CLI_DOCS = 4  # priors per cli run, alternating exact and float
ORACLE_TRIALS = 300  # random rivals per n=3 solve in the general-lp check
N2_PER_CYCLE = 4
LP_PER_CYCLE = 3


@dataclass
class Op:
    """One timed operation and the check applied to its output.

    ``run`` is the timed call; ``check`` runs outside the timed region and
    returns None when the output is correct, else a short reason. ``inproc``
    is the in-process form of a cli command, used by the traced run.
    ``tags`` are copied onto the operation's spans.
    """

    workload: str
    label: str
    cls: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    tags: dict = field(default_factory=dict)
    inproc: Callable[[], Any] | None = None


def _rng(seed: int, workload: str, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _distinct(rng: random.Random, count: int, draw) -> list:
    values: list = []
    while len(values) < count:
        x = draw()
        if x not in values:
            values.append(x)
    return values


def _exact_binary_pairs(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    p0 = Fraction(rng.randint(2, 18), 20)
    q0, q1 = _distinct(rng, 2, lambda: Fraction(rng.randint(1, 19), 20))
    return [(p0, q0), (1 - p0, q1)]


def _float_binary_pairs(rng: random.Random) -> list[tuple[float, float]]:
    p0 = rng.uniform(0.1, 0.9)
    q0, q1 = _distinct(rng, 2, lambda: round(rng.uniform(0.05, 0.95), 6))
    return [(p0, q0), (1.0 - p0, q1)]


def _exact_ternary_pairs(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    a = rng.randint(2, 14)
    b = rng.randint(2, 18 - a)
    masses = [Fraction(a, 20), Fraction(b, 20), Fraction(20 - a - b, 20)]
    conds = _distinct(rng, 3, lambda: Fraction(rng.randint(1, 19), 20))
    return list(zip(masses, conds))


def _float_ternary_pairs(rng: random.Random) -> list[tuple[float, float]]:
    raw = [rng.uniform(0.2, 1.0) for _ in range(3)]
    total = sum(raw)
    masses = [raw[0] / total, raw[1] / total]
    masses.append(1.0 - masses[0] - masses[1])
    conds = _distinct(rng, 3, lambda: round(rng.uniform(0.05, 0.95), 6))
    return list(zip(masses, conds))


def _budget_label(eps, exp_eps) -> str:
    return f"eps={eps!r}" if exp_eps is None else f"exp_eps={exp_eps}"


def input_key(kind: str, pairs, eps, exp_eps, family: str) -> str:
    """Stable text key of a general-lp input, used by the reference table."""
    cells = ",".join(f"({p},{q})" for p, q in pairs)
    return f"{kind}|{cells}|{_budget_label(eps, exp_eps)}|{family}"


def exact_sweep_bounds() -> list[Fraction]:
    """51 exact ratio bounds tracking e**eps over the float grid's range."""
    return [Fraction(1)] + [
        Fraction(math.exp(k * SWEEP_STEP)).limit_denominator(100)
        for k in range(1, SWEEP_POINTS)
    ]


def utilities() -> dict[str, Any]:
    return {name: ipd.UtilityFn(name) for name in FAMILIES}


# Each workload names its speed ruler (see ruler.py) and how much operation
# time passes between two rulings; rulings take about a tenth of a run.


class BinarySweep:
    name = "binary-sweep"
    ruler, rule_every_s = "cpu", 0.04

    def __init__(self, seed: int):
        self.seed = seed
        self.u = utilities()
        self.bounds = exact_sweep_bounds()
        self._last_gain: dict[tuple, Any] = {}

    def cycle(self, k: int) -> list[Op]:
        rng = _rng(self.seed, self.name, k)
        ops = []
        sweeps = (
            ("exact", "a", _exact_binary_pairs(rng)),
            ("float", "b", _float_binary_pairs(rng)),
        )
        for arith, cls, pairs in sweeps:
            prior_id = (k, arith)
            for point in range(SWEEP_POINTS):
                if arith == "exact":
                    eps, exp_eps = None, self.bounds[point]
                elif point == 0:
                    eps, exp_eps = None, Fraction(1)  # as `ipd sweep` parses "0.0"
                else:
                    eps, exp_eps = point * SWEEP_STEP, None
                ops.append(
                    Op(
                        workload=self.name,
                        label=arith,
                        cls=cls,
                        run=self._point(pairs, eps, exp_eps),
                        check=self._checker(prior_id, point, arith, eps, exp_eps),
                        tags={
                            "arith": arith,
                            "sweep_point": True,
                            "positive_budget": point > 0,
                        },
                    )
                )
        return ops

    def _point(self, pairs, eps, exp_eps):
        def run():
            prior = ipd.load_prior(pairs)
            gains = {
                name: ipd.utility_gain(prior, eps, u, exp_eps=exp_eps)
                for name, u in self.u.items()
            }
            st = gains[FAMILIES[0]].solution_eps.structure
            ipd.structure_to_mechanism(st)
            ip = ipd.check_ip(st, eps, exp_eps=exp_eps)
            if exp_eps != 1:
                ipd.check_regions(st, eps, exp_eps=exp_eps)
            return gains, ip

        return run

    def _checker(self, prior_id, point, arith, eps, exp_eps):
        def check(result) -> str | None:
            gains, ip = result
            if not ip.satisfied:
                return f"check_ip fails at {_budget_label(eps, exp_eps)}"
            for name, report in gains.items():
                exact = arith == "exact" and name != "negentropy"
                if exact and not (
                    isinstance(report.u_eps, Fraction) and isinstance(report.u_0, Fraction)
                ):
                    return f"{name}: exact input gave a non-Fraction utility"
                slack = 0 if exact else CHECK_TOL
                if report.u_eps < report.u_0 - slack:
                    return f"{name}: u_eps below u_0"
                key = (prior_id, name)
                previous = self._last_gain.get(key) if point > 0 else None
                if previous is not None and report.gain < previous - slack:
                    return f"{name}: gain falls along the budget grid"
                self._last_gain[key] = report.gain
            return None

        return check


class GeneralLp:
    name = "general-lp"
    ruler, rule_every_s = "lp", 0.1

    def __init__(self, seed: int, reference: dict[str, float] | None = None):
        self.seed = seed
        self.u = utilities()
        self.reference = reference or {}

    def cycle(self, k: int) -> list[Op]:
        rng = _rng(self.seed, self.name, k)
        kinds = [
            ("n3_float", "a", "float", _float_ternary_pairs(rng), rng.choice(GENERAL_EPS), None),
            ("n3_exact", "a", "exact", _exact_ternary_pairs(rng), None, rng.choice(GENERAL_EXP_EPS)),
        ]
        kinds += [
            ("n2", "b", "float", _float_binary_pairs(rng), rng.choice(GENERAL_EPS), None)
            for _ in range(N2_PER_CYCLE)
        ]
        ops = []
        for j, (kind, cls, arith, pairs, eps, exp_eps) in enumerate(kinds):
            family = FAMILIES[(k + j) % len(FAMILIES)]
            key = input_key(kind, pairs, eps, exp_eps, family)
            ops.append(
                Op(
                    workload=self.name,
                    label=kind,
                    cls=cls,
                    run=self._solve(pairs, eps, exp_eps, family),
                    check=self._checker(key, len(pairs), eps, exp_eps, family),
                    tags={"arith": arith, "n": len(pairs), "key": key},
                )
            )
        return ops

    def _solve(self, pairs, eps, exp_eps, family):
        u = self.u[family]

        def run():
            prior = ipd.load_prior(pairs)
            return prior, ipd.solve_general(prior, eps, u, exp_eps=exp_eps)

        return run

    def _checker(self, key, n, eps, exp_eps, family):
        u = self.u[family]

        def check(result) -> str | None:
            prior, solution = result
            if not ipd.check_ip(solution.structure, eps, exp_eps=exp_eps).satisfied:
                return "check_ip fails on the LP optimum"
            if n == 2:
                closed = ipd.solve_binary(prior, eps, exp_eps=exp_eps)
                expected = float(ipd.expected_utility(closed.structure, u))
                if abs(solution.utility - expected) > PATH_TOL:
                    return f"n=2 utility {solution.utility!r} != closed form {expected!r}"
                return None
            if key in self.reference and abs(solution.utility - self.reference[key]) > PATH_TOL:
                return f"utility {solution.utility!r} != reference {self.reference[key]!r}"
            return _oracle_check(prior, eps, exp_eps, u, solution)

        return check


def _oracle_check(prior, eps, exp_eps, u, solution) -> str | None:
    """No random private structure may beat the LP optimum.

    The oracle's own call to solve_general is answered with the solution
    under test, so the check costs only the random rivals.
    """
    original = ipd.oracle.solve_general
    ipd.oracle.solve_general = lambda *args, **kwargs: solution
    try:
        report = ipd.oracle.random_structure_oracle(
            prior, eps, u, trials=ORACLE_TRIALS, seed=0, exp_eps=exp_eps
        )
    finally:
        ipd.oracle.solve_general = original
    if report.best_utility > solution.utility + CHECK_TOL:
        return f"random rival {report.best_utility!r} beats {solution.utility!r}"
    return None


COMMANDS = (
    "solve",
    "verify",
    "utility",
    "sample",
    "sweep",
    "solve-general",
    "oracle-grid",
    "oracle-random",
)
SAMPLE_COUNT = 10000
SWEEP_GRID = "0:2.5:0.05"


@dataclass(frozen=True)
class CliDoc:
    prior: str
    structure: str
    mechanism: str
    eps: str
    secret: str
    signals: frozenset
    arith: str
    lp_utility: float  # closed-form optimum under abs, what solve-general must return


class Cli:
    name = "cli"
    ruler, rule_every_s = "process", 0.0

    def __init__(self, seed: int, root: str, tmpdir: str):
        self.seed = seed
        self.root = root
        self.tmpdir = tmpdir
        self.env = dict(os.environ)  # run.py pins BLAS to one thread here
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
        )
        self.docs = [self._write_doc(i) for i in range(CLI_DOCS)]

    def _write_doc(self, i: int) -> CliDoc:
        rng = _rng(self.seed, self.name, i)
        exact = i % 2 == 0
        pairs = _exact_binary_pairs(rng) if exact else _float_binary_pairs(rng)
        text = rng.choice(CLI_EXACT_EPS if exact else CLI_FLOAT_EPS)
        eps, exp_eps = ipd.cli.parse_eps(text)
        prior = ipd.load_prior(pairs, ["alpha", "beta"])
        solution = ipd.solve_binary(prior, eps, exp_eps=exp_eps)
        paths = [os.path.join(self.tmpdir, f"{kind}{i}.json") for kind in ("prior", "structure", "mechanism")]
        ipd.serialize.write_json(paths[0], ipd.serialize.encode_prior(prior))
        ipd.serialize.write_json(paths[1], ipd.serialize.encode_structure(solution.structure))
        ipd.serialize.write_json(paths[2], ipd.serialize.encode_mechanism(solution.mechanism))
        return CliDoc(
            prior=paths[0],
            structure=paths[1],
            mechanism=paths[2],
            eps=text,
            secret=prior.secrets[0],
            signals=frozenset(solution.mechanism.signals),
            arith="exact" if exact else "float",
            lp_utility=float(ipd.expected_utility(solution.structure, ipd.UtilityFn("abs"))),
        )

    def argv(self, command: str, doc: CliDoc, k: int) -> list[str]:
        out = os.path.join(self.tmpdir, "out")
        return {
            "solve": ["solve", doc.prior, "--eps", doc.eps,
                      "--out-structure", out + "-structure.json",
                      "--out-mechanism", out + "-mechanism.json"],
            "verify": ["verify", doc.structure, "--eps", doc.eps],
            "utility": ["utility", doc.structure, "--utility", "quadratic"],
            "sample": ["sample", doc.mechanism, "--secret", doc.secret, "--y", "1",
                       "--count", str(SAMPLE_COUNT), "--seed", str(k)],
            "sweep": ["sweep", doc.prior, "--grid", SWEEP_GRID, "--out", out + "-sweep.csv"],
            "solve-general": ["solve-general", doc.prior, "--eps", doc.eps, "--utility", "abs"],
            "oracle-grid": ["oracle", "grid", doc.prior, "--eps", doc.eps, "--utility", "abs"],
            "oracle-random": ["oracle", "random", doc.prior, "--eps", doc.eps,
                              "--utility", "abs", "--seed", str(k)],
        }[command]

    def cycle(self, k: int) -> list[Op]:
        doc = self.docs[k % len(self.docs)]
        runs = [(command, doc) for command in COMMANDS if command != "solve-general"]
        runs += [("solve-general", self.docs[(k + j) % len(self.docs)]) for j in range(LP_PER_CYCLE)]
        ops = []
        for command, doc in runs:
            argv = self.argv(command, doc, k)
            lp = command == "solve-general"
            ops.append(
                Op(
                    workload=self.name,
                    label="lp" if lp else "nolp",
                    cls="b" if lp else "a",
                    run=self._child(argv),
                    inproc=self._inproc(argv),
                    check=self._checker(command, doc, argv),
                    tags={"arith": doc.arith, "n": 2, "command": command},
                )
            )
        return ops

    def _child(self, argv):
        cmd = [sys.executable, "-m", "ipd.cli", *argv]

        def run():
            done = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True,
                text=True, timeout=120,
            )
            return done.returncode, done.stdout, done.stderr

        return run

    @staticmethod
    def _inproc(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ipd.cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()

        return run

    def _checker(self, command: str, doc: CliDoc, argv):
        def check(result) -> str | None:
            code, stdout, stderr = result
            if code != 0:
                return f"{command} exited {code}: {stderr.strip()[:200]}"
            if command == "sample":
                lines = stdout.splitlines()
                if len(lines) != SAMPLE_COUNT or not set(lines) <= doc.signals:
                    return "sample printed the wrong number or kind of labels"
                return None
            if command == "sweep":
                rows = SWEEP_POINTS * len(FAMILIES)
                if stdout.strip() != f"wrote {rows} rows to {argv[-1]}":
                    return f"sweep printed {stdout.strip()!r}"
                with open(argv[-1], encoding="utf-8", newline="") as fh:
                    if len(list(csv.DictReader(fh))) != rows:
                        return "sweep CSV has the wrong row count"
                return None
            try:
                payload = json.loads(stdout)
            except json.JSONDecodeError:
                return f"{command} stdout is not JSON"
            if command == "verify" and not payload["ip"]["satisfied"]:
                return "verify reports the budget violated"
            if command == "solve-general" and abs(payload["utility"] - doc.lp_utility) > PATH_TOL:
                return f"solve-general utility {payload['utility']!r} != {doc.lp_utility!r}"
            if command.startswith("oracle") and not payload["solver_dominates_all"]:
                return f"{command}: a rival is not dominated by the solver"
            return None

        return check


def build(name: str, seed: int, root: str, tmpdir: str, reference=None):
    if name == BinarySweep.name:
        return BinarySweep(seed)
    if name == GeneralLp.name:
        return GeneralLp(seed, reference)
    if name == Cli.name:
        return Cli(seed, root, tmpdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (BinarySweep.name, GeneralLp.name, Cli.name)
