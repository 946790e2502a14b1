"""What the traced benchmark run needs from the package.

A ``--trace 1`` run of ``benchmarks/run.py`` wraps the functions listed in
``benchmarks/tracer.py`` (TARGETS) and builds its per-layer metrics from
their spans; a target that no longer resolves, or an LP count that changes,
leaves a metric absent and the run's result line unusable. The tracer is
read here as it is and never edited.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import ipd.general
from ipd import UtilityFn, load_prior, solve_general

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"

# Gone from the package since the general solver became one LP per solve;
# the tracer still lists it and reads its metrics as absent.
ABSENT = {"general.enumerate_assignments"}

MEND = (
    "the traced benchmark would miss a per-layer metric; see ROADMAP item 1a, "
    "which mends the tracer before such a change can land"
)


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("ipd_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_where_the_tracer_looks(tracer):
    t = tracer.Tracer()
    with t.installed():
        absent = set(t.absent)
    assert absent == ABSENT, f"unresolved targets {sorted(absent - ABSENT)}: {MEND}"


@pytest.mark.parametrize(
    "pairs",
    [
        [(Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 2), Fraction(1, 4))],
        [(0.25, 0.75), (0.25, 0.5), (0.5, 0.25)],
    ],
    ids=["n2", "n3"],
)
def test_each_general_solve_makes_one_linprog_call(pairs, monkeypatch):
    calls = []
    real = ipd.general.linprog

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ipd.general, "linprog", counting)
    n = len(pairs)
    for family in ("abs", "quadratic"):
        calls.clear()
        solve_general(load_prior(pairs), 0.5, UtilityFn(family))
        assert len(calls) == 1, (
            f"solve_general at n={n} made {len(calls)} linprog calls, and "
            f"general.lps_per_solve.n{n} counts them: {MEND}"
        )
