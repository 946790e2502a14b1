"""Tests for the brute-force oracles that cross-examine the solvers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ipd import (
    UnsupportedSize,
    UtilityFn,
    ValidationError,
    binary_grid_oracle,
    expected_utility,
    load_prior,
    pattern_lp_oracle,
    random_structure_oracle,
    solve_binary,
)
from ipd.errors import NotBinarySecret
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

    def test_rejects_non_binary_priors(self):
        prior = load_prior([(0.4, 0.9), (0.3, 0.5), (0.3, 0.1)])
        with pytest.raises(NotBinarySecret):
            binary_grid_oracle(prior, 0.5, UtilityFn("abs"))

    def test_rejects_zero_budget_and_bad_grid(self, fixture_prior):
        with pytest.raises(ValidationError):
            binary_grid_oracle(fixture_prior, 0.0, UtilityFn("abs"))
        with pytest.raises(ValidationError):
            binary_grid_oracle(fixture_prior, 0.5, UtilityFn("abs"), grid=0)


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
