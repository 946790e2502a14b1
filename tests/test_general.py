"""Tests for the cut banks, the chain enumeration, LP assembly, and the general solver."""

import math
from fractions import Fraction

import numpy as np
import pytest

import ipd.general
from ipd import (
    CutAssignment,
    CutColumn,
    SolverError,
    UnsupportedSize,
    UtilityFn,
    ValidationError,
    assemble_lp,
    check_ip,
    check_regions,
    enumerate_assignments,
    expected_utility,
    load_prior,
    posterior_summary,
    random_structure_oracle,
    solve_binary,
    solve_general,
    solve_lp,
)
from ipd.general import MAX_SECRETS, LpSolution
from ipd.numeric import PATH_TOL

from conftest import random_binary_prior


def _count(n, w):
    return sum(1 for _ in enumerate_assignments(n, exp_eps=w))


class TestEnumeration:
    def test_binary_assignment_count(self):
        # hand-derived: 11 nonempty chains plus the empty assignment
        assert _count(2, Fraction(2)) == 12

    def test_three_secret_assignment_count(self):
        assert _count(3, Fraction(2)) == 320

    def test_chains_are_monotone_and_distinct(self):
        for assignment in enumerate_assignments(3, exp_eps=Fraction(2)):
            cols = assignment.columns
            assert assignment.is_chain
            assert len(set(cols)) == len(cols)
            for first, second in zip(cols, cols[1:]):
                assert second.i >= first.i
                assert second.b <= first.b
                assert second.c <= first.c

    def test_factor_vector_expansion(self):
        a = CutAssignment(n=2, columns=(CutColumn(2, 1, 3),), exp_eps=Fraction(2))
        assert a.factor_vector(a.columns[0]) == (Fraction(2), 1)
        b = CutAssignment(n=2, columns=(CutColumn(2, 0, 2),), exp_eps=Fraction(2))
        assert b.factor_vector(b.columns[0]) == (1, Fraction(2))

    def test_out_of_range_column_rejected(self):
        with pytest.raises(ValidationError):
            CutAssignment(n=2, columns=(CutColumn(4, 0, 3),), exp_eps=Fraction(2))

    def test_non_monotone_chain_rejected(self):
        # a bank may hold any distinct columns; only is_chain judges the order
        bank = CutAssignment(
            n=2,
            columns=(CutColumn(2, 0, 2), CutColumn(2, 1, 3)),
            exp_eps=Fraction(2),
        )
        assert not bank.is_chain
        assert CutAssignment(2, bank.columns[::-1], Fraction(2)).is_chain

    def test_duplicate_column_rejected(self):
        with pytest.raises(ValidationError):
            CutAssignment(
                n=2,
                columns=(CutColumn(2, 1, 3), CutColumn(2, 1, 3)),
                exp_eps=Fraction(2),
            )


class TestAssembleLp:
    def test_worked_example_shape_and_posteriors(self, fixture_prior_exact):
        assignment = CutAssignment(
            n=2,
            columns=(CutColumn(2, 1, 3), CutColumn(2, 0, 2)),
            exp_eps=Fraction(2),
        )
        problem = assemble_lp(fixture_prior_exact, UtilityFn("abs"), assignment)
        assert len(problem.var_names) == 4
        assert problem.column_posteriors == (Fraction(2, 3), Fraction(1, 3))

    def test_empty_assignment_has_two_ratio_variables(self, fixture_prior_exact):
        assignment = CutAssignment(n=2, columns=(), exp_eps=Fraction(2))
        problem = assemble_lp(fixture_prior_exact, UtilityFn("abs"), assignment)
        assert len(problem.var_names) == 2
        assert problem.column_posteriors == ()

    def test_known_solution_satisfies_the_constraints(self, fixture_prior_exact):
        # the closed-form optimum in LP coordinates: both boundary ratios at
        # the bound, middle widths from the binary table's bottom row
        assignment = CutAssignment(
            n=2,
            columns=(CutColumn(2, 1, 3), CutColumn(2, 0, 2)),
            exp_eps=Fraction(2),
        )
        problem = assemble_lp(fixture_prior_exact, UtilityFn("abs"), assignment)
        x = np.array([2.0, 2.0, 1 / 12, 1 / 6])
        a_eq = np.array(problem.a_eq)
        b_eq = np.array(problem.b_eq)
        assert np.max(np.abs(a_eq @ x - b_eq)) <= 1e-12
        lo = np.array([b[0] for b in problem.bounds])
        hi = np.array([b[1] for b in problem.bounds])
        assert np.all(x >= lo - 1e-12)
        assert np.all(x <= hi + 1e-12)
        value = float(np.dot(problem.objective, x)) + float(problem.offset)
        assert value == pytest.approx(5 / 6, abs=1e-12)

    def test_prior_size_mismatch_rejected(self, fixture_prior_exact):
        assignment = CutAssignment(n=3, columns=(), exp_eps=Fraction(2))
        with pytest.raises(ValidationError):
            assemble_lp(fixture_prior_exact, UtilityFn("abs"), assignment)


class TestSolveLp:
    def test_optimum_of_the_worked_example(self, fixture_prior_exact):
        assignment = CutAssignment(
            n=2,
            columns=(CutColumn(2, 1, 3), CutColumn(2, 0, 2)),
            exp_eps=Fraction(2),
        )
        problem = assemble_lp(fixture_prior_exact, UtilityFn("abs"), assignment)
        solution = solve_lp(problem)
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(5 / 6, abs=1e-9)
        assert solution.max_residual <= 1e-9

    def test_empty_assignment_gives_full_disclosure_value(self):
        prior = load_prior([(0.5, 0.6), (0.5, 0.5)])
        assignment = CutAssignment(n=2, columns=(), exp_eps=Fraction(2))
        problem = assemble_lp(prior, UtilityFn("abs"), assignment)
        solution = solve_lp(problem)
        assert solution.status == "optimal"
        # u = E|2q-1| under full disclosure is 1 regardless of the prior
        assert solution.objective == pytest.approx(1.0, abs=1e-9)

    def test_solves_are_deterministic(self, fixture_prior_exact):
        assignment = CutAssignment(
            n=2,
            columns=(CutColumn(2, 1, 3),),
            exp_eps=Fraction(2),
        )
        problem = assemble_lp(fixture_prior_exact, UtilityFn("quadratic"), assignment)
        first = solve_lp(problem)
        second = solve_lp(problem)
        assert first.values == second.values


class TestSolveGeneral:
    def test_reproduces_the_binary_closed_form(self, fixture_prior_exact):
        u = UtilityFn("abs")
        solution = solve_general(fixture_prior_exact, u=u, exp_eps=Fraction(2))
        assert solution.utility == pytest.approx(5 / 6, abs=1e-9)
        assert solution.assignment.columns == (
            CutColumn(2, 1, 3),
            CutColumn(2, 0, 2),
        )
        summary = posterior_summary(solution.structure)
        assert sorted(float(q) for q in summary.q) == pytest.approx(
            [0, 1 / 3, 2 / 3, 1], abs=1e-9
        )

    def test_binary_t3_prior_matches_closed_form(self):
        prior = load_prior([(0.5, 0.9), (0.5, 0.4)])
        u = UtilityFn("quadratic")
        closed = expected_utility(solve_binary(prior, math.log(2)).structure, u)
        general = solve_general(prior, math.log(2), u)
        assert general.utility == pytest.approx(float(closed), abs=1e-7)

    def test_three_secret_solution_is_private_and_well_shaped(self):
        prior = load_prior([(1 / 3, 0.9), (1 / 3, 0.5), (1 / 3, 0.1)])
        u = UtilityFn("abs")
        solution = solve_general(prior, math.log(2), u)
        assert check_ip(solution.structure, math.log(2)).satisfied
        assert check_regions(solution.structure, math.log(2)).all_flags
        assert solution.structure.num_signals <= 10

    def test_secret_cap_is_enforced(self):
        n = MAX_SECRETS + 1
        prior = load_prior([(Fraction(1, n), Fraction(k + 1, n + 1)) for k in range(n)])
        with pytest.raises(UnsupportedSize):
            solve_general(prior, 0.5, UtilityFn("abs"))

    def test_missing_utility_raises_type_error(self, fixture_prior_exact):
        with pytest.raises(TypeError):
            solve_general(fixture_prior_exact, 0.5)

    def test_agreement_with_binary_solver_on_random_priors(self):
        rng = np.random.default_rng(21)
        u = UtilityFn("abs")
        for _ in range(10):
            prior = random_binary_prior(rng)
            eps = float(rng.uniform(0.1, 1.8))
            closed = float(
                expected_utility(solve_binary(prior, eps).structure, u)
            )
            assert solve_general(prior, eps, u).utility == pytest.approx(
                closed, abs=1e-7
            )

    def test_tie_between_chains_and_non_chains_resolves_to_a_chain(self):
        # the first LP can stop on the non-chain (2,1,3), (3,1,4), (3,0,2),
        # whose shape fails c_lower_right; the outcome must be a chain either way
        prior = load_prior([(0.65, 0.83), (0.197, 0.38), (0.153, 0.26)])
        solution = solve_general(prior, 0.33, UtilityFn("abs"))
        assert solution.assignment.is_chain
        assert check_regions(solution.structure, 0.33).all_flags
        assert solution.utility == pytest.approx(0.6948052072871898, abs=PATH_TOL)

    @pytest.mark.parametrize(
        "pairs", [[(0.5, 0.75), (0.5, 0.25)], [(0.2, 0.8), (0.5, 0.3), (0.3, 0.1)]]
    )
    def test_huge_budget_gives_full_disclosure(self, pairs):
        # e**50 is far past every conditional ratio; the LP must not see it
        prior = load_prior(pairs)
        solution = solve_general(prior, 50.0, UtilityFn("abs"))
        assert solution.assignment.columns == ()
        assert solution.utility == pytest.approx(1.0, abs=1e-12)
        assert check_ip(solution.structure, 50.0).satisfied

    @pytest.mark.parametrize("family", ["abs", "quadratic"])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_single_lp_matches_the_best_chain(self, family, seed):
        rng = np.random.default_rng(seed)
        prior = load_prior(
            list(zip(rng.dirichlet(np.ones(3)).tolist(), rng.uniform(0, 1, 3).tolist()))
        )
        eps = float(rng.uniform(0.1, 2.0))
        u = UtilityFn(family)
        best = -math.inf
        for chain in enumerate_assignments(3, eps):
            solution = solve_lp(assemble_lp(prior, u, chain))
            if solution.status == "optimal":
                best = max(best, solution.objective)
        assert solve_general(prior, eps, u).utility == pytest.approx(best, abs=PATH_TOL)

    @pytest.mark.parametrize("n", [6, 10])
    def test_larger_supports_are_private_well_shaped_and_unbeaten(self, n):
        rng = np.random.default_rng(n)
        prior = load_prior(
            list(zip(rng.dirichlet(np.ones(n)).tolist(), rng.uniform(0, 1, n).tolist()))
        )
        u = UtilityFn("abs")
        solution = solve_general(prior, 0.6, u)
        assert solution.assignment.is_chain
        assert check_ip(solution.structure, 0.6).satisfied
        assert check_regions(solution.structure, 0.6).all_flags
        report = random_structure_oracle(prior, 0.6, u, trials=1000, seed=n)
        assert report.best_utility <= solution.utility + 1e-9

    def test_non_chain_after_the_tie_break_is_a_solver_error(self, monkeypatch):
        # every column positive cannot be a chain at n=3, in either stage
        def everything_positive(problem):
            ones = (1.0,) * len(problem.var_names)
            return LpSolution("optimal", ones, 0.0, 0.0)

        monkeypatch.setattr(ipd.general, "solve_lp", everything_positive)
        prior = load_prior([(1 / 3, 0.9), (1 / 3, 0.5), (1 / 3, 0.1)])
        with pytest.raises(SolverError):
            solve_general(prior, 0.5, UtilityFn("abs"))
