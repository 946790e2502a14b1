"""Tests for the closed-form binary solver: regimes, widths, boundary behavior.

The width table for a solution is checked against hand-derived values held in
exact rationals, so any drift in the formulas fails loudly rather than within
a tolerance.
"""

import math
import random
from fractions import Fraction

import pytest

import ipd.binary
from ipd import (
    RegimeTag,
    UtilityFn,
    ValidationError,
    check_ip,
    check_regions,
    classify_regime,
    expected_utility,
    gap_instance,
    load_prior,
    posterior_summary,
    solve_binary,
    solve_perfect_privacy,
    structure_to_mechanism,
    utility_gain,
)
from ipd.errors import NotBinarySecret


class TestClassifyRegime:
    def test_full_disclosure_when_both_ratios_fit(self):
        prior = load_prior([(0.5, 0.75), (0.5, 0.25)])
        regime = classify_regime(prior, exp_eps=Fraction(3))
        assert regime.tag is RegimeTag.FULL_DISCLOSURE
        assert regime.r1 == 3
        assert regime.r2 == 3

    def test_three_signal_when_only_low_tail_violates(self):
        prior = load_prior([(0.5, 0.9), (0.5, 0.4)])
        regime = classify_regime(prior, exp_eps=Fraction(2))
        assert regime.tag is RegimeTag.THREE_SIGNAL_T3

    def test_three_signal_mirror_case(self):
        # mirror image of the case above: R1 too big, R2 fits
        prior = load_prior([(0.5, 0.6), (0.5, 0.1)])
        regime = classify_regime(prior, exp_eps=Fraction(2))
        assert regime.tag is RegimeTag.THREE_SIGNAL_T2

    def test_four_signal_when_both_tails_violate(self):
        prior = load_prior([(0.5, 0.75), (0.5, 0.25)])
        regime = classify_regime(prior, exp_eps=Fraction(2))
        assert regime.tag is RegimeTag.FOUR_SIGNAL

    def test_boundary_resolves_to_the_smaller_signal_set(self):
        # R1 == w exactly: full disclosure, not a three-signal tie
        prior = load_prior([(0.5, Fraction(1, 2)), (0.5, Fraction(1, 4))])
        regime = classify_regime(prior, exp_eps=Fraction(2))
        assert regime.r1 == 2
        assert regime.tag is RegimeTag.FULL_DISCLOSURE

    def test_equal_conditionals_are_full_disclosure(self):
        prior = load_prior([(0.5, 0.6), (0.5, 0.6)])
        regime = classify_regime(prior, 0.01)
        assert regime.tag is RegimeTag.FULL_DISCLOSURE

    def test_conditional_of_zero_or_one_gives_an_infinite_ratio(self):
        # an infinite ratio exceeds any budget, so classification proceeds
        for pairs, r1, r2 in [
            ([(0.5, 1.0), (0.5, 0.25)], 4, math.inf),
            ([(0.5, 0.75), (0.5, 0.0)], math.inf, 4),
            ([(0.5, 1.0), (0.5, 0.0)], math.inf, math.inf),
        ]:
            regime = classify_regime(load_prior(pairs), exp_eps=Fraction(2))
            assert regime.tag is RegimeTag.FOUR_SIGNAL
            assert (regime.r1, regime.r2) == (r1, r2)

    def test_rejects_non_binary_prior(self):
        prior = load_prior([(0.3, 0.9), (0.3, 0.5), (0.4, 0.1)])
        with pytest.raises(NotBinarySecret):
            classify_regime(prior, exp_eps=Fraction(2))


    @pytest.mark.parametrize("eps", [37, 40, 100, 700])
    def test_budget_past_float_precision_keeps_four_signals(self, eps):
        # past w = 2**53 a float 1 + w rounds to w, which once turned this
        # prior into a three-signal answer with an infinite privacy ratio
        prior = load_prior([(0.75, 1.0), (0.25, 0.0)])
        assert classify_regime(prior, eps).tag is RegimeTag.FOUR_SIGNAL
        assert check_ip(solve_binary(prior, eps).structure, eps).satisfied
        exact = load_prior([(Fraction(3, 4), 1), (Fraction(1, 4), 0)])
        regime = classify_regime(exact, exp_eps=Fraction(math.exp(eps)))
        assert regime.tag is RegimeTag.FOUR_SIGNAL


class TestSolveBinaryFourSignal:
    def test_fixture_width_table_is_exact(self, fixture_solution):
        assert fixture_solution.regime.tag is RegimeTag.FOUR_SIGNAL
        assert fixture_solution.widths_by_signal == (
            (Fraction(1, 2), Fraction(1, 4)),
            (Fraction(1, 6), Fraction(1, 12)),
            (Fraction(1, 12), Fraction(1, 6)),
            (Fraction(1, 4), Fraction(1, 2)),
        )

    def test_fixture_posteriors_and_masses(self, fixture_solution):
        summary = posterior_summary(fixture_solution.structure)
        assert summary.q == (1, Fraction(2, 3), Fraction(1, 3), 0)
        assert summary.p == (
            Fraction(3, 8),
            Fraction(1, 8),
            Fraction(1, 8),
            Fraction(3, 8),
        )

    def test_fixture_utility(self, fixture_solution):
        assert expected_utility(
            fixture_solution.structure, UtilityFn("abs")
        ) == Fraction(5, 6)

    def test_privacy_is_binding_on_every_signal(self, fixture_solution):
        report = check_ip(fixture_solution.structure, exp_eps=Fraction(2))
        assert report.satisfied
        assert all(report.binding.values())

    def test_extreme_conditionals_keep_their_mass(self):
        # w q0 - w**2 / (1 + w) cancelled for q near 0 or 1 at large budgets
        # and left the third signal's widths off by more than the mass check
        # allows, e.g. for this prior at eps 15
        prior = load_prior([(0.3, 0.0), (0.7, 1.0)])
        assert check_ip(solve_binary(prior, 15.0).structure, 15.0).satisfied
        rng = random.Random(5)
        for eps in (5, 10, 15, 20, 25, 35, 50, 100, 700):
            for _ in range(40):
                draw = [rng.uniform(0, 0.05), rng.uniform(0.95, 1)]
                q0, q1 = (rng.choice([0.0, 1.0, *draw]) for _ in range(2))
                if q0 == q1:
                    continue
                p0 = rng.uniform(0.05, 0.95)
                prior = load_prior([(p0, q0), (1 - p0, q1)])
                structure = solve_binary(prior, eps).structure
                assert check_ip(structure, eps).satisfied
                assert check_regions(structure, eps).all_flags


class TestSolveBinaryOtherRegimes:
    def test_three_signal_widths(self):
        prior = load_prior([(0.5, 0.9), (0.5, 0.4)])
        solution = solve_binary(prior, math.log(2))
        assert solution.regime.tag is RegimeTag.THREE_SIGNAL_T3
        # widths_by_signal rows are (high-secret, low-secret) pairs
        by_label = dict(zip(solution.signals, solution.widths_by_signal))
        assert by_label["t1"][0] == pytest.approx(0.7)
        assert by_label["t2"] == (0, 0)
        assert by_label["t3"][1] == pytest.approx(0.4)
        assert by_label["t4"][1] == pytest.approx(0.2)
        assert solution.structure.num_signals == 3

    def test_full_disclosure_structure(self):
        prior = load_prior([(0.5, 0.75), (0.5, 0.25)])
        solution = solve_binary(prior, exp_eps=Fraction(3))
        summary = posterior_summary(solution.structure)
        assert summary.q == (1, 0)
        assert summary.p == (Fraction(1, 2), Fraction(1, 2))

    def test_full_disclosure_at_exactly_max_ratio(self):
        # once the budget covers max(R1, R2) the solver discloses fully
        prior = load_prior([(0.5, Fraction(4, 5)), (0.5, Fraction(2, 5))])
        r1 = Fraction(4, 5) / Fraction(2, 5)
        r2 = Fraction(3, 5) / Fraction(1, 5)
        solution = solve_binary(prior, exp_eps=max(r1, r2))
        assert solution.regime.tag is RegimeTag.FULL_DISCLOSURE
        assert posterior_summary(solution.structure).q == (1, 0)

    def test_zero_budget_returns_perfect_privacy(self, fixture_prior_exact):
        solution = solve_binary(fixture_prior_exact, 0.0)
        assert solution.regime.tag is RegimeTag.PERFECT_PRIVACY
        summary = posterior_summary(solution.structure)
        assert summary.q == (1, Fraction(1, 2), 0)
        assert summary.p == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))


class TestPerfectPrivacy:
    def test_widths_are_the_overlap_decomposition(self, fixture_prior_exact):
        solution = solve_perfect_privacy(fixture_prior_exact)
        for pair in solution.widths_by_signal:
            assert pair[0] == pair[1]
        assert [pair[0] for pair in solution.widths_by_signal] == [
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(1, 4),
        ]

    def test_signal_reveals_nothing_about_the_secret(self, fixture_prior_exact):
        summary = posterior_summary(solve_perfect_privacy(fixture_prior_exact).structure)
        for row in summary.s_post:
            assert row == (Fraction(1, 2), Fraction(1, 2))

    def test_asymmetric_prior(self):
        prior = load_prior([(0.5, 0.9), (0.5, 0.1)])
        solution = solve_perfect_privacy(prior)
        widths = [pair[0] for pair in solution.widths_by_signal]
        assert widths == pytest.approx([0.1, 0.8, 0.1])

    def test_independent_state_discloses_fully_for_free(self):
        # with q0 == q1 the state carries no information about the secret,
        # so even the zero-budget optimum reveals it outright
        prior = load_prior([(0.5, 0.6), (0.5, 0.6)])
        summary = posterior_summary(solve_perfect_privacy(prior).structure)
        assert summary.q == (1.0, 0.0)
        assert summary.p == (0.6, 0.4)


class TestRegimeBoundaries:
    """At every regime boundary the two adjacent closed forms agree exactly,
    so classification ties can be resolved either way without changing the
    solution. Each test builds a prior sitting exactly on one boundary and
    checks the produced width table against both formulas evaluated by hand.
    """

    def _widths(self, q0, q1, w):
        prior = load_prior([(Fraction(1, 2), q0), (Fraction(1, 2), q1)])
        solution = solve_binary(prior, exp_eps=w)
        return solution.regime.tag, solution.widths_by_signal

    def test_full_meets_t3(self):
        # R2 == w with R1 < w; the three-signal formula collapses to full
        # disclosure: l10 = q0, l31 = 0, l41 = 1 - q1
        w = Fraction(2)
        q0, q1 = Fraction(3, 4), Fraction(1, 2)
        tag, widths = self._widths(q0, q1, w)
        assert tag is RegimeTag.FULL_DISCLOSURE
        assert widths == (
            (q0, q1),
            (0, 0),
            (0, 0),
            (1 - q0, 1 - q1),
        )
        assert widths[0][0] == 1 - (1 - q1) / w  # the T3 value for l10

    def test_full_meets_t2(self):
        # R1 == w with R2 < w; the mirrored three-signal formula collapses
        w = Fraction(2)
        q0, q1 = Fraction(3, 5), Fraction(3, 10)
        tag, widths = self._widths(q0, q1, w)
        assert tag is RegimeTag.FULL_DISCLOSURE
        assert widths == ((q0, q1), (0, 0), (0, 0), (1 - q0, 1 - q1))
        assert widths[0][0] == w * q1  # the T2 value for l10
        assert widths[3][1] == 1 - q0 / w  # the T2 value for l41

    def test_t3_meets_four(self):
        # q1 == 1/(1+w) with both ratios above w: the four-signal l21
        # vanishes and the remaining widths match the three-signal formula
        w = Fraction(2)
        q0, q1 = Fraction(9, 10), Fraction(1, 3)
        tag, widths = self._widths(q0, q1, w)
        assert tag is RegimeTag.THREE_SIGNAL_T3
        assert widths[1] == (0, 0)
        assert widths[0] == (1 - (1 - q1) / w, q1)
        assert widths[0][0] == w * q1  # the four-signal value for l10
        assert widths[2][1] == w * q0 - w * w / (1 + w)  # four-signal l31

    def test_t2_meets_four(self):
        # q0 == w/(1+w) with both ratios above w: the four-signal l31
        # vanishes and the mirrored three-signal formula takes over
        w = Fraction(2)
        q0, q1 = Fraction(2, 3), Fraction(1, 10)
        tag, widths = self._widths(q0, q1, w)
        assert tag is RegimeTag.THREE_SIGNAL_T2
        assert widths[2] == (0, 0)
        assert widths[3] == (1 - q0, 1 - q0 / w)
        assert widths[3][1] == w * (1 - q0)  # the four-signal value for l41
        assert widths[1][1] == 1 / (1 + w) - q1  # four-signal l21


class TestBudgetLimits:
    def test_epsilon_to_zero_converges_to_perfect_privacy(self, fixture_prior):
        # the four-signal table tends to the overlap decomposition: the
        # extreme columns flatten to width pairs (q1, q1) and (1-q0, 1-q0),
        # the middle pair's posteriors tend to p0, and the utility tends to
        # the private baseline
        u = UtilityFn("abs")
        u_0 = expected_utility(solve_perfect_privacy(fixture_prior).structure, u)
        for eps in (1e-3, 1e-5, 1e-7):
            solution = solve_binary(fixture_prior, eps)
            hi, lo = solution.widths_by_signal[0]
            assert hi == pytest.approx(lo, abs=3 * eps)
            summary = posterior_summary(solution.structure)
            assert len(summary.q) == 4
            for post in summary.q[1:3]:
                assert post == pytest.approx(0.5, abs=eps)
            gap = expected_utility(solution.structure, u) - u_0
            assert 0 <= gap < 3 * eps

    def test_utility_is_monotone_in_budget(self, fixture_prior):
        u = UtilityFn("quadratic")
        values = [
            float(expected_utility(solve_binary(fixture_prior, eps).structure, u))
            for eps in (0.0, 0.2, 0.5, 1.0, 1.5, 2.0)
        ]
        for smaller, larger in zip(values, values[1:]):
            assert larger >= smaller - 1e-12


class TestGapInstance:
    def test_hand_sized_example(self):
        inst = gap_instance(delta=1, exp_eps=Fraction(3))
        assert inst.scale == 6
        assert inst.u_eps == 3
        assert inst.u_0 == Fraction(3, 2)
        assert inst.gap == Fraction(3, 2)

    def test_gap_scales_linearly_with_delta(self):
        small = gap_instance(delta=1, exp_eps=Fraction(2))
        large = gap_instance(delta=7, exp_eps=Fraction(2))
        assert large.gap == 7 * small.gap

    def test_prior_sits_in_the_full_disclosure_regime(self):
        inst = gap_instance(delta=2, exp_eps=Fraction(3))
        regime = classify_regime(inst.prior, exp_eps=Fraction(3))
        assert regime.tag is RegimeTag.FULL_DISCLOSURE

    def test_rejects_zero_budget_or_bad_delta(self):
        with pytest.raises(ValidationError):
            gap_instance(delta=1, exp_eps=Fraction(1))
        with pytest.raises(ValidationError):
            gap_instance(0.5, delta=0)
        with pytest.raises(ValidationError):
            gap_instance(0.5)


class TestLazyMechanism:
    def test_solving_builds_no_kernel(self, fixture_prior_exact, kernel_builds):
        solve_binary(fixture_prior_exact, exp_eps=Fraction(2))
        solve_perfect_privacy(fixture_prior_exact)
        for eps in (0.0, 0.7):
            utility_gain(fixture_prior_exact, eps, UtilityFn("quadratic"))
        assert kernel_builds == []

    # a unit ratio bound routes to solve_perfect_privacy
    @pytest.mark.parametrize("bound", [Fraction(2), Fraction(1)])
    def test_first_read_builds_the_kernel_once(
        self, bound, fixture_prior_exact, kernel_builds
    ):
        sol = solve_binary(fixture_prior_exact, exp_eps=bound)
        assert kernel_builds == []
        first = sol.mechanism
        assert kernel_builds == [sol.structure]
        assert sol.mechanism is first
        assert len(kernel_builds) == 1
        assert first == structure_to_mechanism(sol.structure)
        assert all(
            isinstance(x, (int, Fraction))
            for block in first.kernel
            for row in block
            for x in row
        )


class TestRepeatedSolves:
    """A repeated solve answers from the last one only when a fresh solve
    would give the same answer: same Prior object, same budget value and
    type, same check slack."""

    def test_same_prior_and_budget_return_the_same_solution(self, fixture_prior_exact):
        first = solve_binary(fixture_prior_exact, exp_eps=Fraction(2))
        assert solve_binary(fixture_prior_exact, exp_eps=Fraction(2)) is first
        base = solve_perfect_privacy(fixture_prior_exact)
        assert solve_perfect_privacy(fixture_prior_exact) is base
        assert solve_binary(fixture_prior_exact, exp_eps=1) is base

    def test_float_budget_after_exact_budget_gives_float_widths(
        self, fixture_prior_exact
    ):
        exact = solve_binary(fixture_prior_exact, exp_eps=Fraction(2))
        floats = solve_binary(fixture_prior_exact, exp_eps=2.0)
        assert all(isinstance(x, Fraction) for pair in exact.widths_by_signal for x in pair)
        # the widths the budget scales turn float; 1 - q_hi stays exact
        assert isinstance(floats.widths_by_signal[0][0], float)
        half = Fraction(1, 2)
        fresh_prior = load_prior([(half, Fraction(3, 4)), (half, Fraction(1, 4))])
        fresh = solve_binary(fresh_prior, exp_eps=2.0)
        assert floats.widths_by_signal == fresh.widths_by_signal
        assert [type(x) for pair in floats.widths_by_signal for x in pair] == [
            type(x) for pair in fresh.widths_by_signal for x in pair
        ]

    def test_equal_exact_and_float_priors_keep_their_arithmetic(
        self, fixture_prior, fixture_prior_exact
    ):
        assert fixture_prior == fixture_prior_exact  # Prior equality ignores type
        for _ in range(2):
            for prior, kind in ((fixture_prior_exact, Fraction), (fixture_prior, float)):
                solutions = (
                    solve_binary(prior, exp_eps=Fraction(2)),
                    solve_perfect_privacy(prior),
                )
                for sol in solutions:
                    widths = [x for row in sol.structure.widths for x in row]
                    assert all(isinstance(x, kind) for x in widths), kind

    def test_a_changed_tolerance_raises_as_a_fresh_solve_would(
        self, fixture_prior_exact, monkeypatch
    ):
        solve_binary(fixture_prior_exact, exp_eps=Fraction(2))
        solve_perfect_privacy(fixture_prior_exact)
        monkeypatch.setenv("IPD_TOLERANCE", "abc")
        with pytest.raises(ValidationError):
            solve_binary(fixture_prior_exact, exp_eps=Fraction(2))
        with pytest.raises(ValidationError):
            solve_perfect_privacy(fixture_prior_exact)

    @pytest.mark.parametrize("bound, builds", [(Fraction(2), 2), (Fraction(1), 1)])
    def test_a_sweep_point_builds_each_structure_once(
        self, bound, builds, fixture_prior_exact, monkeypatch
    ):
        calls = []

        def counting(*args, real=ipd.binary.pack_columns):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ipd.binary, "pack_columns", counting)
        for family in ("abs", "quadratic", "negentropy"):
            utility_gain(fixture_prior_exact, u=UtilityFn(family), exp_eps=bound)
        assert len(calls) == builds
