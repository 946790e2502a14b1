"""Tests for the cut banks, LP assembly, and the general solver.

The pattern-LP oracle is the general solver's independent reference: one LP
over every (yellow set, width pattern) column type, which does not rest on
the structure theorem that the cut bank does.
"""

import math
import random
from dataclasses import replace
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
    expected_utility,
    load_prior,
    pattern_lp_oracle,
    posterior_summary,
    random_structure_oracle,
    solve_binary,
    solve_general,
    solve_lp,
    structure_to_mechanism,
)
from ipd.general import (
    FEASIBILITY_TOL,
    GUARD_TOL,
    MAX_SECRETS,
    LinprogResult,
    LpSolution,
    all_cuts,
)
from ipd.numeric import CHECK_TOL, PATH_TOL

from conftest import random_binary_prior


class TestEnumeration:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_masks_follow_the_cut_definition(self, n):
        # row j (1-based) of column (i, b, c) is yellow for j <= n+1-i and
        # wide for j <= b inside that block or j >= c below it
        bank = CutAssignment(n, tuple(all_cuts(n)), Fraction(3))
        for col, yellow, wide, rel in zip(
            bank.columns, bank.yellow.tolist(), bank.wide.tolist(), bank.relative_widths
        ):
            top = n + 1 - col.i
            assert yellow == [j <= top for j in range(1, n + 1)]
            assert wide == [j <= col.b if j <= top else j >= col.c for j in range(1, n + 1)]
            factors = [Fraction(3) if f else 1 for f in wide]
            assert rel.tolist() == [float(f / factors[-1]) for f in factors]

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
        assert len(problem.objective) == 4
        assert problem.column_posteriors == (Fraction(2, 3), Fraction(1, 3))

    def test_empty_assignment_has_two_ratio_variables(self, fixture_prior_exact):
        assignment = CutAssignment(n=2, columns=(), exp_eps=Fraction(2))
        problem = assemble_lp(fixture_prior_exact, UtilityFn("abs"), assignment)
        assert len(problem.objective) == 2
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

    def test_three_secret_single_column_lp_by_hand(self):
        # every entry is a binary fraction, so the float LP is exact. Column
        # (2, 1, 4): yellow rows 1-2, row 1 wide, so factors (2, 1, 1) and
        # relative widths (2, 1, 1); posterior (2/2 + 1/8) / (9/8 + 3/8) = 3/4.
        f = Fraction
        prior = load_prior([(f(1, 2), f(3, 4)), (f(1, 8), f(1, 2)), (f(3, 8), f(1, 4))])
        bank = CutAssignment(n=3, columns=(CutColumn(2, 1, 4),), exp_eps=f(2))
        problem = assemble_lp(prior, UtilityFn("abs"), bank)
        assert problem.column_posteriors == (f(3, 4),)
        # variables: yellow ratios rows 1-2, white ratios rows 2-3, the
        # column's bottom width; both anchors are 1/4 (q3 and 1 - q1)
        assert problem.a_eq.tolist() == [
            [0.25, 0.0, 0.0, 0.0, 2.0],  # total width, row 1
            [0.0, 0.25, 0.25, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.25, 1.0],
            [0.25, 0.0, 0.0, 0.0, 2.0],  # yellow width, row 1
            [0.0, 0.25, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],  # row 3 is white in the column
        ]
        assert problem.b_eq.tolist() == [0.75, 1.0, 0.75, 0.75, 0.5, 0.0]
        # x_j <= w x_j2 between the two free rows of each anchor column
        assert problem.a_ub.tolist() == [
            [1.0, -2.0, 0.0, 0.0, 0.0],
            [-2.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, -2.0, 0.0],
            [0.0, 0.0, -2.0, 1.0, 0.0],
        ]
        assert problem.b_ub.tolist() == [0.0] * 4
        assert problem.bounds.tolist() == [[0.5, 2.0]] * 4 + [[0.0, 1.0]]
        # u(1) q3 p1, u(1) q3 p2, u(0) (1 - q1) p2, u(0) (1 - q1) p3, then
        # u(3/4) (2 p1 + p2 + p3); the offset is the two anchors' own rows
        assert problem.objective.tolist() == [0.125, 0.03125, 0.03125, 0.09375, 0.75]
        assert problem.offset == 0.21875

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
        assert solution.objective == pytest.approx(5 / 6, abs=1e-9)
        assert solution.max_residual <= 1e-9

    def test_empty_assignment_gives_full_disclosure_value(self):
        prior = load_prior([(0.5, 0.6), (0.5, 0.5)])
        assignment = CutAssignment(n=2, columns=(), exp_eps=Fraction(2))
        problem = assemble_lp(prior, UtilityFn("abs"), assignment)
        solution = solve_lp(problem)
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
        assert np.array_equal(first.values, second.values)


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

    @pytest.mark.xfail(strict=True, raises=SolverError, reason="float LP fails at large budgets")
    def test_huge_budget_with_a_zero_conditional_solves(self):
        prior = load_prior([(1 / 3, 0.9), (1 / 3, 0.5), (1 / 3, 0.0)])
        solution = solve_general(prior, 35.0, UtilityFn("abs"))
        assert check_ip(solution.structure, 35.0).satisfied

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

    def test_solves_at_the_advertised_cap(self):
        rng = np.random.default_rng(MAX_SECRETS)
        n = MAX_SECRETS
        prior = load_prior(
            list(zip(rng.dirichlet(np.ones(n)).tolist(), rng.uniform(0, 1, n).tolist()))
        )
        solution = solve_general(prior, 0.6, UtilityFn("quadratic"))
        assert solution.assignment.is_chain
        assert check_ip(solution.structure, 0.6).satisfied
        assert check_regions(solution.structure, 0.6).all_flags

    def test_non_chain_after_the_tie_break_is_a_solver_error(self, monkeypatch):
        # every column positive cannot be a chain at n=3, in either stage
        def everything_positive(problem):
            return LpSolution(np.ones(len(problem.objective)), 0.0, 0.0)

        monkeypatch.setattr(ipd.general, "solve_lp", everything_positive)
        prior = load_prior([(1 / 3, 0.9), (1 / 3, 0.5), (1 / 3, 0.1)])
        with pytest.raises(SolverError):
            solve_general(prior, 0.5, UtilityFn("abs"))

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the tie-break's CHECK_TOL hold buys a sliver of a column off the optimal face",
    )
    def test_tie_break_keeps_off_face_columns_out(self):
        # _hold_and_maximize_quadratic lets the primary objective fall by up
        # to CHECK_TOL; here it spends that on a column of mass 3.5e-9 whose
        # posterior breaks the lower-right region, although check_ip passes
        pairs, budget = _seeded(56, 5)
        solution = solve_general(load_prior(pairs), u=REWARDS, **budget)
        assert check_ip(solution.structure, **budget).satisfied
        assert check_regions(solution.structure, **budget).all_flags


def _seeded(seed, n):
    """A random prior and budget for n secrets, drawn in a fixed order."""
    rng = np.random.default_rng(seed)
    pairs = list(zip(rng.dirichlet(np.ones(n)).tolist(), rng.uniform(0, 1, n).tolist()))
    return pairs, {"eps": float(rng.uniform(0.1, 2.0))}


F = Fraction
REWARDS = UtilityFn("rewards", ((3, 0, 1), (0, 2, 1)))
EXACT_2 = [(F(1, 2), F(3, 4)), (F(1, 2), F(1, 4))]
ONE_ZERO = [(F(3, 5), 1), (F(2, 5), 0)]
FLOAT_2 = [(0.5, 0.75), (0.5, 0.25)]
EXACT_3 = [(F(1, 3), F(9, 10)), (F(1, 3), F(1, 2)), (F(1, 3), 0)]
EXACT_4 = [(F(1, 4), F(k, 8)) for k in (7, 5, 3, 1)]
FLOAT_3 = [(0.3, 0.9), (0.3, 0.5), (0.4, 0.2)]
ZERO_AND_ONE = [(0.2, 1.0), (0.2, 0.8), (0.2, 0.5), (0.2, 0.3), (0.2, 0.0)]
# case id: (prior pairs, budget, utility family)
PATTERN_CASES = {
    **{
        f"chain-seed{seed}-{family}": (*_seeded(seed, 3), family)
        for seed in (3, 8)
        for family in ("abs", "quadratic")
    },
    "n2-exact-abs": (EXACT_2, {"exp_eps": F(2)}, "abs"),
    "n2-float-rewards": ([(0.3, 0.9), (0.7, 0.4)], {"eps": 0.8}, "rewards"),
    "n2-one-zero-negentropy": (ONE_ZERO, {"exp_eps": F(3)}, "negentropy"),
    "n2-zero-budget-quadratic": (FLOAT_2, {"exp_eps": 1}, "quadratic"),
    "n3-exact-zero-negentropy": (EXACT_3, {"exp_eps": F(2)}, "negentropy"),
    "n3-one-rewards": ([(0.3, 1.0), *FLOAT_3[1:]], {"eps": math.log(2)}, "rewards"),
    "n3-zero-budget-abs": (FLOAT_3, {"exp_eps": 1}, "abs"),
    "n4-seeded-negentropy": (*_seeded(4, 4), "negentropy"),
    "n4-exact-rewards": (EXACT_4, {"exp_eps": F(3, 2)}, "rewards"),
    "n5-zero-and-one-quadratic": (ZERO_AND_ONE, {"eps": 0.9}, "quadratic"),
    "n5-seeded-abs": (*_seeded(5, 5), "abs"),
    "n6-seeded-abs": (*_seeded(6, 6), "abs"),
    "n6-seeded-quadratic": (*_seeded(16, 6), "quadratic"),
    "n6-seeded-rewards": (*_seeded(26, 6), "rewards"),
}


class TestPatternOracle:
    @pytest.mark.parametrize("case", PATTERN_CASES)
    def test_matches_the_solver(self, case):
        pairs, budget, family = PATTERN_CASES[case]
        prior = load_prior(pairs)
        u = REWARDS if family == "rewards" else UtilityFn(family)
        report = pattern_lp_oracle(prior, u=u, **budget)
        n = prior.n
        assert report.trials == 2**n * (2**n - 1)
        assert abs(report.best_utility - report.solver_utility) <= PATH_TOL
        assert check_ip(report.best_structure, **budget).satisfied
        assert float(expected_utility(report.best_structure, u)) == pytest.approx(
            report.best_utility, abs=CHECK_TOL
        )
        if n == 2:  # the closed form is Blackwell-optimal
            assert report.solver_dominates_all


def _scipy_linprog(c, a_ub, b_ub, a_eq, b_eq, bounds):
    """The same LP through scipy's linprog on HiGHS, with _highs's options."""
    from scipy.optimize import linprog

    options = dict(primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10)
    return linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method="highs-ds", options=options,
    )


def _two_secret_corpus():
    """320 seeded (prior, eps, utility) triples.

    Every family, eps from 0 to 50, and one q of exactly 0 or 1 in every
    other triple.
    """
    rng = random.Random(17)
    families = [UtilityFn(f) for f in ("abs", "quadratic", "negentropy")] + [REWARDS]
    corpus = []
    while len(corpus) < 320:
        k = len(corpus)
        q = [round(rng.uniform(0, 1), 6) for _ in range(2)]
        if k % 2:
            q[rng.randrange(2)] = float(rng.randrange(2))
        if q[0] == q[1]:
            continue
        eps = (0.0, 50.0)[k % 20 // 10] if k % 10 == 0 else rng.uniform(0, 50)
        p0 = rng.uniform(0.05, 0.95)
        prior = load_prior([(p0, q[0]), (1 - p0, q[1])])
        corpus.append((prior, eps, families[k % len(families)]))
    return corpus


class TestBoundedSimplex:
    """The two-secret LPs go to the in-package simplex; HiGHS is the reference."""

    def test_corpus_matches_highs_and_the_closed_form(self, monkeypatch):
        seen = []

        def recording(*args):
            seen.append(args)
            return real(*args)

        real = ipd.general.linprog
        monkeypatch.setattr(ipd.general, "linprog", recording)
        highs_calls = []
        highs = ipd.general._highs
        monkeypatch.setattr(ipd.general, "_highs", lambda *a: highs_calls.append(a) or highs(*a))
        for prior, eps, u in _two_secret_corpus():
            solution = solve_general(prior, eps, u)
            assert check_ip(solution.structure, eps).satisfied
            closed = float(expected_utility(solve_binary(prior, eps).structure, u))
            assert abs(solution.utility - closed) <= PATH_TOL
        assert len(seen) == 320  # one LP per two-secret solve
        for args in seen:
            ours, ref = real(*args), _scipy_linprog(*args)
            c, _, _, a_eq, b_eq, bounds = args
            lo, hi = bounds.T
            assert np.all((lo <= ours.x) & (ours.x <= hi))
            assert np.max(np.abs(a_eq @ ours.x - b_eq)) <= GUARD_TOL
            # HiGHS's own answer may miss the rows by up to its 1e-10
            # tolerance and gain objective by it; compare where it does not
            if ref.status == 0 and np.max(np.abs(a_eq @ ref.x - b_eq)) <= GUARD_TOL:
                assert abs(c @ ours.x - c @ ref.x) <= 1e-12
        assert highs_calls == []  # the guard accepted every answer

    @pytest.mark.parametrize("family", ["abs", "quadratic", "negentropy"])
    def test_solves_where_highs_reports_infeasible(self, family):
        prior = load_prior([(0.478199, 1.0), (0.521801, 0.7141)])
        u = UtilityFn(family)
        solution = solve_general(prior, 15.0, u)
        assert check_ip(solution.structure, 15.0).satisfied
        closed = float(expected_utility(solve_binary(prior, 15.0).structure, u))
        assert abs(solution.utility - closed) <= PATH_TOL

    def test_infeasible_lp_reports_status_2(self):
        # x0 + x1 = 3 with both in [0, 1]
        args = (
            np.array([1.0, 1.0]), np.zeros((0, 2)), np.zeros(0),
            np.array([[1.0, 1.0]]), np.array([3.0]), np.array([[0.0, 1.0], [0.0, 1.0]]),
        )
        assert ipd.general.linprog(*args).status == 2

    @staticmethod
    def _nudged_solve(monkeypatch, j, delta):
        """linprog on the worked example with the simplex's x[j] moved by delta.

        Its optimum has x = (2, 2, 1/12, 1/6): both width ratios at their
        upper bound 2, both columns inside (0, 1). Returns the result and
        the answers HiGHS gave.
        """
        problem = assemble_lp(
            load_prior([(0.5, 0.75), (0.5, 0.25)]),
            UtilityFn("abs"),
            CutAssignment(2, (CutColumn(2, 1, 3), CutColumn(2, 0, 2)), Fraction(2)),
        )
        simplex = ipd.general._bounded_simplex

        def nudged(*lp):
            x = simplex(*lp)
            x[j] += delta
            return x

        answers = []
        highs = ipd.general._highs
        monkeypatch.setattr(ipd.general, "_bounded_simplex", nudged)
        monkeypatch.setattr(
            ipd.general, "_highs", lambda *a: answers.append(highs(*a)) or answers[-1]
        )
        args = (
            -problem.objective, problem.a_ub, problem.b_ub,
            problem.a_eq, problem.b_eq, problem.bounds,
        )
        return ipd.general.linprog(*args), answers

    @pytest.mark.parametrize(
        "j, delta", [(2, 1e-9), (0, 1e-9)], ids=["off-the-rows", "past-a-bound"]
    )
    def test_guard_rejected_answer_goes_to_highs(self, monkeypatch, j, delta):
        result, answers = self._nudged_solve(monkeypatch, j, delta)
        assert len(answers) == 1
        assert result is answers[0]
        assert result.status == 0

    def test_slack_within_the_guard_is_clipped_onto_the_bound(self, monkeypatch):
        result, answers = self._nudged_solve(monkeypatch, 0, 1e-13)
        assert answers == []
        assert isinstance(result, LinprogResult)
        assert result.x[0] == 2.0


def _general_corpus():
    """48 seeded (prior, budget, utility) triples, eight for each n = 3..8.

    Every family, exact and float priors in turn, and one q of exactly 0 or
    1 in every third triple.
    """
    rng = random.Random(18)
    families = [UtilityFn(f) for f in ("abs", "quadratic", "negentropy")] + [REWARDS]
    corpus = []
    for n in range(3, 9):
        for k in range(8):
            if k % 2:
                p = [F(rng.randint(1, 9)) for _ in range(n)]
                q = [F(rng.randint(1, 19), 20) for _ in range(n)]
                budget = {"exp_eps": F(rng.randint(11, 40), 10)}
            else:
                p = [rng.uniform(0.1, 1.0) for _ in range(n)]
                q = [round(rng.uniform(0, 1), 6) for _ in range(n)]
                budget = {"eps": rng.uniform(0.1, 3.0)}
            if k % 3 == 0:
                q[rng.randrange(n)] = rng.randrange(2)
            total = sum(p)
            prior = load_prior([(x / total, y) for x, y in zip(p, q)])
            corpus.append((prior, budget, families[(n + k) % len(families)]))
    return corpus


class TestHighsCall:
    """_highs against scipy's linprog(method="highs-ds") with the same options."""

    def test_corpus_matches_scipy_linprog_bit_for_bit(self, monkeypatch):
        lps = []
        highs = ipd.general._highs
        monkeypatch.setattr(ipd.general, "_highs", lambda *a: lps.append(a) or highs(*a))
        corpus = _general_corpus()
        ours = [solve_general(prior, u=u, **budget) for prior, budget, u in corpus]
        # a tie-break LP carries one row beyond the even number of budget rows
        assert any(len(b_ub) % 2 for _, _, b_ub, _, _, _ in lps)
        for args in lps:
            direct, ref = highs(*args), _scipy_linprog(*args)
            assert direct.status == ref.status
            assert np.array_equal(direct.x, ref.x)
        # the solver's outputs are those of the scipy-linprog backend
        monkeypatch.setattr(ipd.general, "_highs", _scipy_linprog)
        for solution, (prior, budget, u) in zip(ours, corpus):
            ref = solve_general(prior, u=u, **budget)
            assert solution.structure.widths == ref.structure.widths
            assert solution.structure.cells == ref.structure.cells
            assert solution.assignment == ref.assignment
            assert solution.utility == ref.utility

    def test_infeasible_lp_reports_status_2(self):
        # x0 + x1 = 3 with both in [0, 1], and x0 - x1 <= 0
        args = (
            np.array([1.0, 1.0]), np.array([[1.0, -1.0]]), np.zeros(1),
            np.array([[1.0, 1.0]]), np.array([3.0]), np.array([[0.0, 1.0], [0.0, 1.0]]),
        )
        assert ipd.general._highs(*args).status == _scipy_linprog(*args).status == 2
        # an LP HiGHS calls infeasible although the solver's own simplex solves it
        prior = load_prior([(0.478199, 1.0), (0.521801, 0.7141)])
        problem = assemble_lp(prior, UtilityFn("abs"), ipd.general._full_bank(2, math.exp(15.0)))
        args = (
            -problem.objective, problem.a_ub, problem.b_ub,
            problem.a_eq, problem.b_eq, problem.bounds,
        )
        assert ipd.general._highs(*args).status == _scipy_linprog(*args).status == 2

    def test_scipy_ships_every_binding_the_call_uses(self):
        from scipy.optimize._highspy import _core

        names = [
            "HighsLp", "HighsOptions", "_Highs", "kHighsInf",
            "MatrixFormat.kColwise",
            "HighsStatus.kError",
            "HighsModelStatus.kOptimal", "HighsModelStatus.kInfeasible",
            "HighsDebugLevel.kHighsDebugLevelNone",
            "simplex_constants.SimplexStrategy.kSimplexStrategyDual",
            "_Highs.passOptions", "_Highs.passModel", "_Highs.run",
            "_Highs.getModelStatus", "_Highs.modelStatusToString", "_Highs.getSolution",
            "HighsSolution.col_value",
        ]
        for name in names:
            obj = _core
            for part in name.split("."):
                assert hasattr(obj, part), name
                obj = getattr(obj, part)
        lp, options = _core.HighsLp(), _core.HighsOptions()
        fields = {
            lp: ("num_col_", "num_row_", "a_matrix_", "col_cost_", "col_lower_",
                 "col_upper_", "row_lower_", "row_upper_"),
            lp.a_matrix_: ("format_", "num_col_", "num_row_", "start_", "index_", "value_"),
            options: ("solver", "simplex_strategy", "presolve", "primal_feasibility_tolerance",
                      "dual_feasibility_tolerance", "output_flag", "log_to_console",
                      "highs_debug_level"),
        }
        for obj, attrs in fields.items():
            for attr in attrs:
                assert hasattr(obj, attr), attr


class TestFeasibilityGuard:
    """solve_lp holds a backend's optimal x to FEASIBILITY_TOL on rows and bounds."""

    @staticmethod
    def _problem():
        return assemble_lp(
            load_prior(FLOAT_3), UtilityFn("quadratic"), ipd.general._full_bank(3, 2.0)
        )

    def _solve_with_answer(self, monkeypatch, perturb, x_of=np.array):
        """solve_lp on a perturbed n=3 LP, answered with x_of(the original's optimum)."""
        problem = self._problem()
        x = solve_lp(problem).values
        answer = LinprogResult(0, x_of(x), "optimal")
        monkeypatch.setattr(ipd.general, "linprog", lambda *a: answer)
        return solve_lp(perturb(problem, x))

    MISSES = {
        "equality-row": lambda pr, x, d: replace(pr, b_eq=pr.b_eq + np.eye(len(pr.b_eq))[0] * d),
        "inequality-row": lambda pr, x, d: replace(
            pr, b_ub=np.append(pr.b_ub[:-1], pr.a_ub[-1] @ x - d)
        ),
        "upper-bound": lambda pr, x, d: replace(
            pr, bounds=np.vstack([pr.bounds[:-1], [pr.bounds[-1][0], x[-1] - d]])
        ),
        "lower-bound": lambda pr, x, d: replace(
            pr, bounds=np.vstack([[x[0] + d, pr.bounds[0][1]], pr.bounds[1:]])
        ),
    }

    @pytest.mark.parametrize("miss", sorted(MISSES))
    def test_answer_off_a_row_or_bound_is_a_solver_error(self, monkeypatch, miss):
        perturb = self.MISSES[miss]
        with pytest.raises(SolverError):
            self._solve_with_answer(monkeypatch, lambda pr, x: perturb(pr, x, 2 * FEASIBILITY_TOL))
        # a miss inside the tolerance is accepted and reported as the residual
        solution = self._solve_with_answer(monkeypatch, lambda pr, x: perturb(pr, x, 1e-5))
        assert solution.max_residual == pytest.approx(1e-5, rel=1e-3)

    def test_nan_answer_is_a_solver_error(self, monkeypatch):
        with pytest.raises(SolverError):
            self._solve_with_answer(monkeypatch, lambda pr, x: pr, lambda x: x * np.nan)

    def test_infeasible_answer_is_a_solver_error(self, monkeypatch):
        # status 2 is an error like any other failure, with the backend's message
        answer = LinprogResult(2, None, "HiGHS model status Infeasible")
        monkeypatch.setattr(ipd.general, "linprog", lambda *a: answer)
        with pytest.raises(SolverError, match="HiGHS model status Infeasible"):
            solve_lp(self._problem())


class TestLazyMechanism:
    def test_kernel_is_built_on_first_read_only(self, kernel_builds):
        prior = load_prior([(0.3, 0.9), (0.3, 0.5), (0.4, 0.1)])
        sol = solve_general(prior, 0.7, UtilityFn("abs"))
        assert kernel_builds == []
        first = sol.mechanism
        assert kernel_builds == [sol.structure]
        assert sol.mechanism is first
        assert len(kernel_builds) == 1
        assert first == structure_to_mechanism(sol.structure)
