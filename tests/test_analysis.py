"""Tests for utilities, the privacy check, region validators, and convex order."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import ipd.analysis
from ipd import (
    InfoStructure,
    MeanMismatch,
    UtilityFn,
    ValidationError,
    blackwell_dominates,
    check_ip,
    check_regions,
    expected_utility,
    load_prior,
    parse_utility,
    posterior_summary,
    solve_perfect_privacy,
    utility_gain,
)

from conftest import random_binary_prior


class TestUtilityFn:
    def test_abs_stays_exact_on_fractions(self):
        u = UtilityFn("abs")
        assert u(Fraction(2, 3)) == Fraction(1, 3)
        assert isinstance(u(Fraction(2, 3)), Fraction)

    def test_quadratic_values(self):
        u = UtilityFn("quadratic")
        assert u(Fraction(3, 4)) == Fraction(1, 4)
        assert u(0.5) == 0

    def test_negentropy_endpoints_and_midpoint(self):
        u = UtilityFn("negentropy")
        assert u(0) == 1.0
        assert u(1) == 1.0
        assert u(0.5) == pytest.approx(1.0 - math.log(2))

    def test_rewards_family_is_max_of_lines(self):
        # matching pennies payoffs reproduce |2q-1|
        u = UtilityFn("rewards", rewards=((1, -1), (-1, 1)))
        for q in (0, Fraction(1, 4), 0.5, Fraction(9, 10), 1):
            assert u(q) == UtilityFn("abs")(q)

    def test_array_calls_match_scalar_calls(self):
        qs = np.linspace(0.0, 1.0, 17)
        utilities = [UtilityFn(name) for name in ("abs", "quadratic", "negentropy")]
        utilities.append(UtilityFn("rewards", rewards=((1, Fraction(1, 3), -2), (-1, 0, 3))))
        for u in utilities:
            np.testing.assert_allclose(u(qs), [u(float(q)) for q in qs], atol=1e-12)
            for q in qs:
                assert u(np.float64(q)) == u(float(q)), (u.family, q)

    def test_float_at_is_the_float_of_a_call(self):
        # exact abs and quadratic values from their integers, with terms up
        # to 200 bits and exact halves, zero and one among them
        rng = random.Random(5)
        qs = [Fraction(0), Fraction(1), Fraction(1, 2), 0.3, 1]
        for bits in (4, 53, 54, 200):
            for _ in range(300):
                t = rng.randint(1, 2**bits)
                qs.append(Fraction(rng.randint(0, t), t))
        utilities = [UtilityFn(name) for name in ("abs", "quadratic", "negentropy")]
        utilities.append(UtilityFn("rewards", rewards=((1, Fraction(1, 3), -2), (-1, 0, 3))))
        for u in utilities:
            for q in qs:
                got, want = u.float_at(q), float(u(q))
                assert type(got) is float and repr(got) == repr(want), (u.family, q)

    def test_builtin_family_rejects_reward_matrix(self):
        with pytest.raises(ValidationError):
            UtilityFn("abs", rewards=((1,), (0,)))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError):
            UtilityFn("cubic")

    def test_ragged_reward_matrix_rejected(self):
        with pytest.raises(ValidationError):
            UtilityFn("rewards", rewards=((1, 2), (3,)))

    def test_parse_utility_builtin_and_rewards(self):
        assert parse_utility("quadratic").family == "quadratic"
        u = parse_utility("rewards:some.json", rewards_loader=lambda p: [[1, -1], [-1, 1]])
        assert u.family == "rewards"
        with pytest.raises(ValidationError):
            parse_utility("rewards:")
        with pytest.raises(ValidationError):
            parse_utility("nonsense")


class TestCheckIp:
    def test_fixture_satisfies_and_binds_every_column(self, fixture_solution):
        report = check_ip(fixture_solution.structure, exp_eps=Fraction(2))
        assert report.satisfied
        assert report.witness is None
        assert report.max_log_ratio == pytest.approx(math.log(2))
        assert all(report.binding.values())

    def test_loose_budget_is_satisfied_but_not_binding(self, fixture_solution):
        report = check_ip(fixture_solution.structure, exp_eps=Fraction(3))
        assert report.satisfied
        assert not any(report.binding.values())

    def test_tighter_budget_fails_with_witness(self, fixture_solution):
        report = check_ip(fixture_solution.structure, 0.5)
        assert not report.satisfied
        signal, wide, narrow = report.witness
        assert signal in fixture_solution.structure.signals
        assert {wide, narrow} == {"s0", "s1"}

    def test_zero_against_positive_width_is_infinite(self):
        prior = load_prior([(0.5, 0.75), (0.5, 0.25)])
        st = InfoStructure(
            prior=prior,
            signals=("t1", "t2", "t3"),
            widths=((0.75, 0.25, 0.0), (0.0, 0.25, 0.75)),
            cells=((1, 0, 0), (0, 1, 0)),
        )
        report = check_ip(st, 100.0)
        assert not report.satisfied
        assert report.max_log_ratio == math.inf
        assert report.witness[0] == "t1"

    def test_a_column_without_mass_is_skipped(self):
        prior = load_prior([(0.5, 0.75), (0.5, 0.25)])
        st = InfoStructure(
            prior=prior,
            signals=("t1", "t2", "t0"),
            widths=((0.75, 0.25, 0.0), (0.25, 0.75, 0.0)),
            cells=((1, 0, 0), (1, 0, 0)),
        )
        report = check_ip(st, math.log(3))
        assert report.satisfied
        assert report.max_log_ratio == pytest.approx(math.log(3))
        assert set(report.binding) == {"t1", "t2"}

    def test_perfect_privacy_passes_any_budget(self, fixture_prior):
        st = solve_perfect_privacy(fixture_prior).structure
        assert check_ip(st, 1e-9).satisfied
        assert check_ip(st, exp_eps=Fraction(1)).satisfied


class TestCheckRegions:
    def test_fixture_has_every_shape_property(self, fixture_solution):
        report = check_regions(fixture_solution.structure, exp_eps=Fraction(2))
        assert report.all_flags
        assert report.cells_binary
        assert report.columns_binding
        assert report.a_upper_left
        assert report.b_upper_left
        assert report.c_lower_right
        assert report.zero_width_cells == ()

    def test_perfect_privacy_structure_is_not_binding_at_positive_eps(
        self, fixture_prior
    ):
        st = solve_perfect_privacy(fixture_prior).structure
        report = check_regions(st, exp_eps=Fraction(2))
        assert not report.columns_binding
        # (signal, narrowest width, widest width) of the first interior column
        assert report.witnesses["columns_binding"] == ("t2", 0.5, 0.5)

    def test_crossing_blocks_break_the_upper_left_staircase(self):
        prior = load_prior([(0.5, 0.6), (0.5, 0.5)])
        st = InfoStructure(
            prior=prior,
            signals=("t1", "t2"),
            widths=((0.4, 0.6), (0.5, 0.5)),
            cells=((0, 1), (1, 0)),
        )
        assert check_ip(st, exp_eps=Fraction(2)).satisfied
        report = check_regions(st, exp_eps=Fraction(2))
        assert not report.a_upper_left
        # (member, offender): yellow (s0, t2) with white (s0, t1) up-left of it
        assert report.witnesses["a_upper_left"] == (("s0", "t2"), ("s0", "t1"))

    def test_interior_cell_breaks_binary_flag(self, fixture_prior):
        st = InfoStructure(
            prior=fixture_prior,
            signals=("t1", "t2"),
            widths=((0.5, 0.5), (0.5, 0.5)),
            cells=((0.75, 0.75), (0.25, 0.25)),
        )
        report = check_regions(st, exp_eps=Fraction(2))
        assert not report.cells_binary
        assert report.witnesses["cells_binary"] == ("s0", "t1", 0.75)

    @staticmethod
    def _three_secret_lp_structure(ps, qs, widths):
        """Regions of an exact n=3 structure, private at ln 2, from a non-chain LP.

        The columns are all-yellow, two middle cuts and all-white; the widths
        are the LP optimum written as fractions.
        """
        prior = load_prior(list(zip(ps, qs)))
        st = InfoStructure(
            prior=prior,
            signals=("t1", "t2", "t3", "t4"),
            widths=tuple(tuple(Fraction(x) for x in row) for row in widths),
            cells=((1, 1, 1, 0), (1, 1, 0, 0), (1, 0, 0, 0)),
        )
        assert check_ip(st, exp_eps=Fraction(2)).satisfied
        return check_regions(st, exp_eps=Fraction(2))

    def test_wide_yellow_cells_off_the_upper_left_staircase(self):
        # Cuts (2, 0, 3) and (3, 1, 3): s0 is wide in t3 but narrow in t2,
        # which has the higher posterior.
        report = self._three_secret_lp_structure(
            (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
            (Fraction(4, 5), Fraction(1, 2), Fraction(1, 5)),
            (
                ("2/5", "1/10", "3/10", "1/5"),
                ("2/5", "1/10", "3/20", "7/20"),
                ("1/5", "1/5", "3/10", "3/10"),
            ),
        )
        assert [k for k, v in report.witnesses.items() if v] == ["b_upper_left"]
        assert not report.b_upper_left
        assert report.witnesses["b_upper_left"] == (("s0", "t3"), ("s0", "t2"))

    def test_wide_white_cells_off_the_lower_right_staircase(self):
        # Cuts (2, 1, 3) and (3, 1, 4): s2 is wide in t2 but narrow in t3,
        # which has the lower posterior.
        report = self._three_secret_lp_structure(
            (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)),
            (Fraction(3, 4), Fraction(1, 2), Fraction(1, 5)),
            (
                ("2/5", "1/4", "1/10", "1/4"),
                ("3/8", "1/8", "1/20", "9/20"),
                ("1/5", "1/4", "1/20", "1/2"),
            ),
        )
        assert [k for k, v in report.witnesses.items() if v] == ["c_lower_right"]
        assert not report.c_lower_right
        assert report.witnesses["c_lower_right"] == (("s2", "t2"), ("s2", "t3"))

    def test_zero_budget_is_rejected(self, fixture_solution):
        with pytest.raises(ValidationError):
            check_regions(fixture_solution.structure, 0.0)


class TestBlackwell:
    def test_summary_dominates_itself_and_is_equivalent(self, fixture_solution):
        summary = posterior_summary(fixture_solution.structure)
        verdict = blackwell_dominates(summary, summary)
        assert verdict.dominates and verdict.equivalent

    def test_fixture_strictly_dominates_perfect_privacy(
        self, fixture_prior_exact, fixture_solution
    ):
        a = posterior_summary(fixture_solution.structure)
        b = posterior_summary(solve_perfect_privacy(fixture_prior_exact).structure)
        forward = blackwell_dominates(a, b)
        assert forward.dominates and not forward.equivalent
        backward = blackwell_dominates(b, a)
        assert not backward.dominates

    def test_mean_mismatch_raises(self, fixture_solution):
        a = posterior_summary(fixture_solution.structure)
        other = load_prior([(0.5, 0.9), (0.5, 0.2)])
        b = posterior_summary(solve_perfect_privacy(other).structure)
        with pytest.raises(MeanMismatch):
            blackwell_dominates(a, b)

    def test_dominance_implies_higher_convex_utility(self, fixture_prior_exact):
        from ipd import solve_binary

        # more budget => Blackwell-better => weakly better for every family
        small = solve_binary(fixture_prior_exact, exp_eps=Fraction(3, 2))
        large = solve_binary(fixture_prior_exact, exp_eps=Fraction(3))
        a = posterior_summary(large.structure)
        b = posterior_summary(small.structure)
        assert blackwell_dominates(a, b).dominates
        for name in ("abs", "quadratic", "negentropy"):
            u = UtilityFn(name)
            assert expected_utility(large.structure, u) >= expected_utility(
                small.structure, u
            ) - 1e-12


class TestExpectedUtility:
    def test_fixture_value_is_exact(self, fixture_solution):
        assert expected_utility(fixture_solution.structure, UtilityFn("abs")) == Fraction(5, 6)

    def test_reward_route_and_builtin_route_agree(self):
        # |2q-1| as a reward maximum must reproduce the builtin exactly
        rng = np.random.default_rng(12)
        tent = UtilityFn("rewards", rewards=((1, -1), (-1, 1)))
        builtin = UtilityFn("abs")
        from ipd import solve_binary

        for _ in range(25):
            prior = random_binary_prior(rng)
            st = solve_binary(prior, rng.uniform(0.05, 2.0)).structure
            assert expected_utility(st, tent) == pytest.approx(
                expected_utility(st, builtin), abs=1e-12
            )


    def test_fraction_and_float_rewards_keep_their_own_result_type(
        self, fixture_solution
    ):
        st = fixture_solution.structure
        exact = UtilityFn("rewards", rewards=((Fraction(1), Fraction(-1)), (-1, 1)))
        floats = UtilityFn("rewards", rewards=((1.0, -1.0), (-1.0, 1.0)))
        assert exact == floats  # UtilityFn equality ignores the rewards' type
        for _ in range(2):
            for u, kind in ((exact, Fraction), (floats, float)):
                value = expected_utility(st, u)
                assert type(value) is kind
                assert value == pytest.approx(Fraction(5, 6), abs=1e-15)
            assert expected_utility(st, exact) == Fraction(5, 6)

    def test_a_repeated_call_on_one_structure_sums_once(self, fixture_solution, monkeypatch):
        sums = []

        def counting(st, real=ipd.analysis.column_stats):
            sums.append(st)
            return real(st)

        monkeypatch.setattr(ipd.analysis, "column_stats", counting)
        st = fixture_solution.structure
        first = [expected_utility(st, UtilityFn(f)) for f in ("abs", "quadratic")]
        again = [expected_utility(st, UtilityFn(f)) for f in ("abs", "quadratic")]
        assert again == first
        assert len(sums) == 2


class TestUtilityGain:
    def test_full_disclosure_budget_gain(self):
        prior = load_prior([(0.5, 0.75), (0.5, 0.25)])
        report = utility_gain(prior, u=UtilityFn("abs"), exp_eps=Fraction(3))
        assert report.u_eps == 1
        assert report.u_0 == Fraction(1, 2)
        assert report.gain == 2
        assert not report.zero_baseline

    def test_zero_budget_gain_is_one(self, fixture_prior):
        report = utility_gain(fixture_prior, 0.0, UtilityFn("quadratic"))
        assert report.gain == 1
        assert report.solution_eps is report.solution_0

    def test_zero_baseline_reports_infinity(self):
        # with Y fully determined by S, hiding S means hiding Y: the private
        # baseline pools everything at the uninformative posterior 1/2
        prior = load_prior([(0.5, 1.0), (0.5, 0.0)])
        report = utility_gain(prior, u=UtilityFn("abs"), exp_eps=Fraction(2))
        assert report.zero_baseline
        assert report.u_0 == 0
        assert report.u_eps > 0
        assert report.gain == math.inf

    def test_missing_utility_raises_type_error(self, fixture_prior):
        with pytest.raises(TypeError):
            utility_gain(fixture_prior, 0.5)
