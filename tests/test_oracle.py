"""Tests for the brute-force oracles that cross-examine the solvers."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ipd import (
    CHECK_TOL,
    UnsupportedSize,
    UtilityFn,
    ValidationError,
    binary_grid_oracle,
    check_ip,
    expected_utility,
    load_prior,
    pattern_lp_oracle,
    posterior_summary,
    random_structure_oracle,
    solve_binary,
    solve_perfect_privacy,
)
from ipd.errors import NotBinarySecret
from ipd.numeric import ratio_bound
from ipd.oracle import MAX_PATTERN_SECRETS

from conftest import random_binary_prior


class TestGridOracle:
    def test_coarse_grid_hits_the_optimum_at_a_corner(self, fixture_prior_exact):
        # for the fixture the optimum sits at the corner of the width box,
        # so even a 2x2 lattice contains it
        report = binary_grid_oracle(
            fixture_prior_exact, u=UtilityFn("abs"), grid=1, exp_eps=Fraction(2)
        )
        assert report.best_utility == pytest.approx(5 / 6, abs=1e-12)
        assert report.solver_dominates_all

    def test_fine_grid_never_beats_the_solver(self, fixture_prior_exact):
        report = binary_grid_oracle(
            fixture_prior_exact, u=UtilityFn("abs"), grid=100, exp_eps=Fraction(2)
        )
        assert report.best_utility <= report.solver_utility + 1e-9
        assert report.solver_dominates_all
        assert report.trials == 9589  # feasible lattice points out of 101*101

    def test_three_signal_regime_dominates_strictly_inside(self):
        # in a three-signal regime the dominant point is not a box corner,
        # so the grid maximum sits strictly below the closed form
        prior = load_prior([(0.5, 0.9), (0.5, 0.4)])
        report = binary_grid_oracle(prior, math.log(2), UtilityFn("quadratic"), grid=60)
        assert report.solver_dominates_all
        assert report.best_utility <= report.solver_utility + 1e-9

    def test_best_structure_is_reported_and_consistent(self, fixture_prior_exact):
        report = binary_grid_oracle(
            fixture_prior_exact, u=UtilityFn("abs"), grid=10, exp_eps=Fraction(2)
        )
        st = report.best_structure
        assert st is not None
        assert expected_utility(st, UtilityFn("abs")) == pytest.approx(
            report.best_utility, abs=1e-12
        )

    @pytest.mark.parametrize("eps", [400.0, 700.0])
    def test_budgets_past_the_square_of_the_width_ratio(self, eps):
        # e**(2 eps) overflows a float from eps = 354.9 on; the middle widths
        # must not, or the lattice loses nearly all its points
        prior = load_prior([(0.5, 0.9), (0.5, 0.4)])
        u = UtilityFn("quadratic")
        baseline = binary_grid_oracle(prior, 200.0, u)
        report = binary_grid_oracle(prior, eps, u)
        assert report.trials >= baseline.trials == 101 * 101
        assert report.solver_dominates_all
        assert report.best_utility <= report.solver_utility + 1e-9
        assert check_ip(report.best_structure, eps).satisfied

    def test_rejects_non_binary_priors(self):
        prior = load_prior([(0.4, 0.9), (0.3, 0.5), (0.3, 0.1)])
        with pytest.raises(NotBinarySecret):
            binary_grid_oracle(prior, 0.5, UtilityFn("abs"))

    def test_rejects_zero_budget_and_bad_grid(self, fixture_prior):
        with pytest.raises(ValidationError):
            binary_grid_oracle(fixture_prior, 0.0, UtilityFn("abs"))
        with pytest.raises(ValidationError):
            binary_grid_oracle(fixture_prior, 0.5, UtilityFn("abs"), grid=0)


def full_lattice_scan(prior, w, u, grid, solver_structure):
    """Every point of the grid oracle's lattice, checked and scored one by one.

    Returns the feasible count, the convex-order verdict against the solver
    structure and the best lattice utility, from the row-sum formulas of
    the middle widths at each point.
    """
    p0, p1 = (float(x) for x in prior.p)
    q0, q1 = (float(x) for x in prior.q)
    qt2 = w * p0 / (w * p0 + p1)
    qt3 = p0 / (p0 + w * p1)
    values = [float(u(x)) for x in (1.0, qt2, qt3, 0.0)]
    summary = posterior_summary(solver_structure)
    solver_points = [(float(p), float(q)) for p, q in zip(summary.p, summary.q)]
    limits = [
        (x, sum(p * max(q - x, 0.0) for p, q in solver_points))
        for x in (0.0, qt3, qt2, 1.0)
    ]
    l10s = np.linspace(q1 / w, min(w * q1, q0), grid + 1).tolist()
    l41s = np.linspace((1 - q0) / w, min(w * (1 - q0), 1 - q1), grid + 1).tolist()
    denom = w * w - 1.0
    trials, dominates, best = 0, True, -math.inf
    for l10 in l10s:
        for l41 in l41s:
            l21 = (-w * l10 + l41 + w * q0 + q1 - 1.0) / denom
            l31 = w * (l10 - w * l41 - q0 - w * q1 + w) / denom
            if l21 < -1e-15 or l31 < -1e-15:
                continue
            trials += 1
            masses = (
                p0 * l10 + p1 * q1,
                (p0 * w + p1) * max(l21, 0.0),
                (p0 / w + p1) * max(l31, 0.0),
                p0 * (1 - q0) + p1 * l41,
            )
            best = max(best, sum(v * m for v, m in zip(values, masses)))
            for x, limit in limits:
                stick = sum(m * max(q - x, 0.0) for m, q in zip(masses, (1, qt2, qt3)))
                dominates = dominates and stick <= limit + CHECK_TOL
    return trials, dominates, best


def _parity_corpus():
    """Seeded (prior, budget, utility, grid) cases: exact and float, with
    conditionals of 0 and 1, every grid from 1 to 60, and one lattice point
    whose middle width rounds to just below zero."""
    rng = random.Random(24)
    utilities = [
        UtilityFn("abs"),
        UtilityFn("quadratic"),
        UtilityFn("negentropy"),
        UtilityFn("rewards", rewards=((1, Fraction(1, 5), -2), (-1, 0.4, 3))),
    ]
    for grid in range(1, 61):
        if grid % 2:
            mass = Fraction(rng.randint(1, 9), 10)
            qs = sorted(Fraction(rng.randint(0, 10), 10) for _ in range(2))
            budget = {"exp_eps": Fraction(rng.randint(11, 50), 10)}
        else:
            mass = rng.uniform(0.05, 0.95)
            qs = sorted(rng.choice([0.0, 1.0, rng.random()]) for _ in range(2))
            budget = {"eps": rng.uniform(0.02, 4.0)}
        prior = load_prior([(mass, qs[1]), (1 - mass, qs[0])])
        yield prior, budget, utilities[grid % 4], grid
    # the top lattice corner, where l31 is zero, computes to -2.1e-16 here
    yield load_prior([(0.5, 0.7), (0.5, 0.2)]), {"eps": 1.5}, utilities[0], 10


class TestGridScanParity:
    """The row-run scan against a scan of every lattice point."""

    @pytest.mark.parametrize("weak_solver", [False, True], ids=["closed-form", "weak"])
    def test_matches_the_full_lattice_scan(self, monkeypatch, weak_solver):
        # the weak side challenges the no-information structure, which most
        # lattice points beat, so the verdicts of both kinds are compared
        def perfect_privacy(prior, *args, **kwargs):
            return solve_perfect_privacy(prior)

        solve = perfect_privacy if weak_solver else solve_binary
        monkeypatch.setattr("ipd.oracle.solve_binary", solve)
        verdicts = set()
        for prior, budget, u, grid in _parity_corpus():
            report = binary_grid_oracle(prior, u=u, grid=grid, **budget)
            solver = solve(prior, **budget).structure
            w = float(ratio_bound(**budget))
            trials, dominates, best = full_lattice_scan(prior, w, u, grid, solver)
            assert report.trials == trials
            assert report.solver_dominates_all == dominates
            assert report.solver_utility == float(expected_utility(solver, u))
            assert report.best_utility == pytest.approx(best, abs=1e-12)
            assert check_ip(report.best_structure, **budget).satisfied
            verdicts.add(dominates)
        assert verdicts == ({True} if not weak_solver else {True, False})


class TestRandomOracle:
    def test_never_beats_the_solver_on_the_fixture(self, fixture_prior_exact):
        report = random_structure_oracle(
            fixture_prior_exact,
            u=UtilityFn("abs"),
            trials=3000,
            seed=4,
            exp_eps=Fraction(2),
        )
        assert report.best_utility <= report.solver_utility + 1e-9
        assert report.solver_dominates_all
        assert 0 < report.trials <= 3000

    def test_draws_are_reproducible_per_seed(self, fixture_prior):
        kwargs = dict(u=UtilityFn("quadratic"), trials=500, exp_eps=Fraction(2))
        a = random_structure_oracle(fixture_prior, seed=9, **kwargs)
        b = random_structure_oracle(fixture_prior, seed=9, **kwargs)
        assert a.best_utility == b.best_utility
        assert a.trials == b.trials

    def test_candidates_respect_the_budget(self, fixture_prior):
        from ipd import check_ip

        report = random_structure_oracle(
            fixture_prior, u=UtilityFn("abs"), trials=400, seed=2, exp_eps=Fraction(2)
        )
        # the reported best candidate must itself be a private structure
        assert check_ip(report.best_structure, exp_eps=Fraction(2)).satisfied

    def test_zero_trials_gives_a_vacuous_report(self, fixture_prior):
        report = random_structure_oracle(
            fixture_prior, u=UtilityFn("abs"), trials=0, seed=1, exp_eps=Fraction(2)
        )
        assert report.trials == 0
        assert report.best_utility == -math.inf
        assert report.best_structure is None
        assert report.solver_dominates_all

    def test_seed_is_mandatory(self, fixture_prior):
        with pytest.raises(ValidationError):
            random_structure_oracle(
                fixture_prior, u=UtilityFn("abs"), trials=10, exp_eps=Fraction(2)
            )

    def test_a_weakened_solver_is_reported_dominated(self, fixture_prior, monkeypatch):
        # the no-information structure, which most private candidates beat
        monkeypatch.setattr(
            "ipd.oracle._solver_structure",
            lambda prior, u, w: solve_perfect_privacy(prior).structure,
        )
        report = random_structure_oracle(
            fixture_prior, u=UtilityFn("abs"), trials=200, seed=4, exp_eps=Fraction(2)
        )
        assert not report.solver_dominates_all
        assert report.best_utility > report.solver_utility

    def test_three_secret_prior_uses_the_lp_solver(self):
        prior = load_prior([(1 / 3, 0.9), (1 / 3, 0.5), (1 / 3, 0.1)])
        report = random_structure_oracle(
            prior, math.log(2), UtilityFn("abs"), trials=800, seed=6
        )
        assert report.best_utility <= report.solver_utility + 1e-9
        assert report.solver_dominates_all


class TestPatternOracle:
    def test_rejects_a_support_above_the_cap_before_solving(self, monkeypatch):
        monkeypatch.setattr("ipd.oracle.solve_general", None)  # a solve would raise
        n = MAX_PATTERN_SECRETS + 1
        prior = load_prior([(Fraction(1, n), Fraction(k, n)) for k in range(n, 0, -1)])
        with pytest.raises(UnsupportedSize):
            pattern_lp_oracle(prior, 0.5, UtilityFn("abs"))

    def test_needs_a_utility(self, fixture_prior):
        with pytest.raises(TypeError):
            pattern_lp_oracle(fixture_prior, 0.5)


class TestOracleAgainstRandomInstances:
    def test_grid_oracle_on_a_spread_of_priors_and_budgets(self):
        rng = np.random.default_rng(17)
        u = UtilityFn("abs")
        for _ in range(8):
            prior = random_binary_prior(rng)
            eps = float(rng.uniform(0.15, 1.6))
            report = binary_grid_oracle(prior, eps, u, grid=40)
            assert report.best_utility <= report.solver_utility + 1e-9
            assert report.solver_dominates_all
