"""Shared fixtures: the worked binary example and helpers for random inputs."""

import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import ipd.binary
import ipd.general
from ipd import load_prior, solve_binary


@pytest.fixture(autouse=True)
def cold_binary_memos(monkeypatch):
    """Start every test with empty binary solver memos.

    Equal priors share a memo entry, so an entry left by an earlier test
    would answer a later test's first solve and hide the builds it counts.
    """
    monkeypatch.setattr(ipd.binary, "_last_binary", None)
    monkeypatch.setattr(ipd.binary, "_last_perfect_privacy", None)


@pytest.fixture
def fixture_prior():
    """Uniform binary prior with q = (3/4, 1/4), in floats."""
    return load_prior([(0.5, 0.75), (0.5, 0.25)])


@pytest.fixture
def fixture_prior_exact():
    """The same prior in Fractions so solves stay rational end to end."""
    half = Fraction(1, 2)
    return load_prior([(half, Fraction(3, 4)), (half, Fraction(1, 4))])


@pytest.fixture
def fixture_solution(fixture_prior_exact):
    """Exact four-signal optimum of the fixture prior at budget ln 2."""
    return solve_binary(fixture_prior_exact, exp_eps=Fraction(2))


@pytest.fixture
def kernel_builds(monkeypatch):
    """The structures the binary and general solvers turn into mechanisms."""
    calls = []
    for module in (ipd.binary, ipd.general):

        def counting(st, real=module.structure_to_mechanism):
            calls.append(st)
            return real(st)

        monkeypatch.setattr(module, "structure_to_mechanism", counting)
    return calls


def random_binary_prior(rng: np.random.Generator, gap: float = 0.05):
    """Interior binary prior with q0 - q1 >= gap, away from 0 and 1."""
    p0 = rng.uniform(0.1, 0.9)
    q1 = rng.uniform(0.02, 0.9 - gap)
    q0 = rng.uniform(q1 + gap, 0.98)
    return load_prior([(p0, q0), (1.0 - p0, q1)])


@pytest.fixture
def capped_highs(monkeypatch):
    """A new HiGHS solver for this thread that stops each LP at 5 iterations.

    SIX_SECRET_PRIOR's LP needs more, so it reaches the cap; monkeypatch
    puts the thread's own solver and the real cap back afterwards.
    """
    monkeypatch.setattr(ipd.general, "_thread", threading.local())
    monkeypatch.setattr(ipd.general, "SIMPLEX_ITERATION_LIMIT", 5)


# At eps 23 under the quadratic utility this prior's LP takes 16 dual simplex
# iterations, with a conditional of 1 and a budget factor near 1e10.
SIX_SECRET_PRIOR = [
    (0.19191968999582873, 0.5374100700757825),
    (0.2167549332487808, 0.06103034737112922),
    (0.14291066779780362, 1.0),
    (0.10203841661017932, 0.7400128757292261),
    (0.08801632271773992, 0.6471881237673606),
    (0.2583599696296675, 0.35346600926098826),
]


# At eps 21 this prior's LP answer, rescaled to exact row sums, has a width
# ratio 1.14e-9 past the budget in log, beyond the 1e-9 check slack.
OVER_BUDGET_PRIOR = [(0.25, 1.0), (0.25, 0.7), (0.5, 0.25)]


def hide_packages(monkeypatch, *packages):
    """Make each package, and every submodule of it, fail to import.

    A None entry in sys.modules makes the import system raise
    ModuleNotFoundError; monkeypatch puts the real entries back.
    """
    for package in packages:
        for name in [m for m in sys.modules if m.startswith(package + ".")]:
            monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.setitem(sys.modules, package, None)
