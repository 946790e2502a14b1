"""Tests for priors, structures, mechanisms, and the operations between them."""

from fractions import Fraction

import numpy as np
import pytest

from ipd import (
    CutAssignment,
    InfoStructure,
    MassNotNormalized,
    PosteriorSummary,
    Prior,
    ValidationError,
    ZeroMassContext,
    check_ip,
    compress,
    load_prior,
    load_prior_joint,
    mechanism_to_structure,
    merge_signals,
    posterior_summary,
    sample_signal,
    solve_binary,
    split_signal,
    structure_to_mechanism,
)
from ipd.errors import (
    BadWeights,
    ConditionalOutOfRange,
    DegenerateConditional,
    NonPositiveMass,
    NotEquivalentSignals,
    UnknownLabel,
)
from ipd.model import _over, _white, _yellow, column_stats
from ipd.numeric import check_slack

from conftest import random_binary_prior


class TestPrior:
    def test_canonical_order_sorts_by_decreasing_q(self):
        prior = load_prior([(0.5, 0.25), (0.5, 0.75)], labels=["low", "high"])
        assert prior.secrets == ("high", "low")
        assert prior.q == (0.75, 0.25)
        # perm records where each canonical secret sat in the input
        assert prior.perm == (2, 1)
        assert prior.user_order() == (1, 0)

    def test_stable_sort_keeps_input_order_on_ties(self):
        prior = load_prior([(0.3, 0.5), (0.7, 0.5)], labels=["a", "b"])
        assert prior.secrets == ("a", "b")

    def test_p_y1_is_the_mixture(self):
        prior = load_prior([(0.4, 0.9), (0.6, 0.2)])
        assert prior.p_y1 == pytest.approx(0.4 * 0.9 + 0.6 * 0.2)

    def test_key_tells_types_signs_labels_and_order_apart(self):
        half = Fraction(1, 2)
        keys = [
            load_prior([(half, Fraction(3, 4)), (half, Fraction(0))]).key,
            load_prior([(0.5, 0.75), (0.5, 0.0)]).key,
            load_prior([(0.5, 0.75), (0.5, -0.0)]).key,
            load_prior([(0.5, 0.75), (0.5, np.float64(0.0))]).key,
            load_prior([(0.5, 0.75), (0.5, 0.0)], labels=["a", "b"]).key,
            load_prior([(0.5, 0.0), (0.5, 0.75)], labels=["s1", "s0"]).key,
        ]
        assert len(set(keys)) == len(keys)
        assert load_prior([(0.5, 0.75), (0.5, 0.0)]).key == keys[1]

    def test_joint_table_loader_matches_marginal_form(self):
        # P(S=s, Y=y) table for p=(.5,.5), q=(.75,.25)
        joint = load_prior_joint([(0.125, 0.375), (0.375, 0.125)])
        direct = load_prior([(0.5, 0.75), (0.5, 0.25)])
        assert joint.p == pytest.approx(direct.p)
        assert joint.q == pytest.approx(direct.q)

    def test_rejects_unnormalized_mass(self):
        with pytest.raises(MassNotNormalized):
            load_prior([(0.5, 0.75), (0.4, 0.25)])

    def test_rejects_zero_mass_secret(self):
        with pytest.raises(NonPositiveMass):
            load_prior([(1.0, 0.75), (0.0, 0.25)])

    def test_rejects_conditional_outside_unit_interval(self):
        with pytest.raises(ConditionalOutOfRange):
            load_prior([(0.5, 1.25), (0.5, 0.25)])

    def test_huge_exact_value_beside_a_float_is_a_validation_error(self):
        # summing 10**400 with a float would overflow it
        with pytest.raises(MassNotNormalized, match="above 1"):
            load_prior([(10**400, 0.75), (0.5, 0.25)])
        with pytest.raises(ConditionalOutOfRange, match="inf"):
            load_prior([(0.5, 10**400), (0.5, 0.25)])
        with pytest.raises(MassNotNormalized):
            load_prior_joint([(10**400, 0.5), (0.25, 0.25)])

    def test_rejects_single_secret(self):
        with pytest.raises(ValidationError):
            load_prior([(1.0, 0.5)])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            load_prior([(0.5, 0.75), (0.5, 0.25)], labels=["s", "s"])

    def test_secret_index_unknown_label(self):
        prior = load_prior([(0.5, 0.75), (0.5, 0.25)])
        with pytest.raises(KeyError):
            prior.secret_index("nope")

    def test_unknown_labels_are_typed_errors(self, fixture_solution):
        for lookup in (
            fixture_solution.structure.prior.secret_index,
            fixture_solution.structure.signal_index,
            fixture_solution.mechanism.signal_index,
        ):
            with pytest.raises(UnknownLabel) as info:
                lookup("nope")
            assert str(info.value).endswith(" 'nope'")
            assert isinstance(info.value, ValidationError)


class TestInfoStructure:
    def test_rejects_width_row_not_summing_to_one(self, fixture_prior):
        with pytest.raises(MassNotNormalized):
            InfoStructure(
                prior=fixture_prior,
                signals=("t1", "t2"),
                widths=((0.5, 0.4), (0.5, 0.5)),
                cells=((1, 0), (1, 0)),
            )

    def test_rejects_row_inconsistent_with_prior(self, fixture_prior):
        # both rows fully disclose, but row 2 claims posterior 1 everywhere
        with pytest.raises(ValidationError):
            InfoStructure(
                prior=fixture_prior,
                signals=("t1", "t2"),
                widths=((0.75, 0.25), (0.25, 0.75)),
                cells=((1, 0), (1, 1)),
            )

    def test_rejects_negative_width(self, fixture_prior):
        with pytest.raises(ValidationError):
            InfoStructure(
                prior=fixture_prior,
                signals=("t1", "t2"),
                widths=((1.1, -0.1), (0.25, 0.75)),
                cells=((1, 0), (1, 0)),
            )

    def test_column_stats_are_computed_once(self, fixture_solution):
        st = fixture_solution.structure
        stats = column_stats(st)
        assert column_stats(st) is stats
        copy = InfoStructure(
            prior=st.prior, signals=st.signals, widths=st.widths, cells=st.cells
        )
        assert copy == st
        assert column_stats(copy) is not stats
        assert column_stats(copy) == stats

    def test_signal_mass(self, fixture_solution):
        st = fixture_solution.structure
        assert st.signal_mass(0) == Fraction(3, 8)
        assert st.signal_mass(1) == Fraction(1, 8)


class TestPosteriorSummary:
    def test_fixture_summary_is_exact(self, fixture_solution):
        summary = posterior_summary(fixture_solution.structure)
        assert summary.p == (
            Fraction(3, 8),
            Fraction(1, 8),
            Fraction(1, 8),
            Fraction(3, 8),
        )
        assert summary.q == (1, Fraction(2, 3), Fraction(1, 3), 0)

    def test_mean_equals_prior_state_probability(self, fixture_solution):
        summary = posterior_summary(fixture_solution.structure)
        assert summary.mean == fixture_solution.structure.prior.p_y1

    def test_zero_mass_signals_are_dropped(self, fixture_prior):
        st = InfoStructure(
            prior=fixture_prior,
            signals=("t1", "dead", "t2"),
            widths=((0.75, 0.0, 0.25), (0.25, 0.0, 0.75)),
            cells=((1, 0.5, 0), (1, 0.5, 0)),
        )
        summary = posterior_summary(st)
        assert summary.signals == ("t1", "t2")

    def test_secret_posterior_rows_sum_to_one(self, fixture_solution):
        summary = posterior_summary(fixture_solution.structure)
        for row in summary.s_post:
            assert sum(row) == 1


class TestMechanismConversion:
    def test_fixture_kernel_values(self, fixture_solution):
        m = fixture_solution.mechanism
        s0 = m.prior.secret_index("s0")
        # P(T=t1 | s0, Y=1) = width*cell/q = (1/2)/(3/4)
        assert m.kernel[s0][1][0] == Fraction(2, 3)
        # the low signal is impossible under Y=1 for the high secret
        assert m.kernel[s0][1][3] == 0

    def test_round_trip_is_exact_for_rational_structures(self, fixture_solution):
        st = fixture_solution.structure
        back = mechanism_to_structure(structure_to_mechanism(st))
        assert back.widths == st.widths
        assert back.cells == st.cells

    def test_kernel_rows_normalize(self, fixture_solution):
        m = fixture_solution.mechanism
        for block in m.kernel:
            for row in block:
                assert sum(row) == 1

    def test_impossible_state_goes_to_the_first_extreme_column(self):
        # s1 has q=0 and "a", "b" both have posterior 1: the y=1 row of s1
        # needs a full-disclosure column and takes the first of the tie
        prior = load_prior([(Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 2), 0)])
        st = InfoStructure(
            prior=prior,
            signals=("a", "b", "c", "d"),
            widths=(
                (Fraction(1, 4), Fraction(1, 2), Fraction(1, 8), Fraction(1, 8)),
                (0, 0, Fraction(1, 2), Fraction(1, 2)),
            ),
            cells=((1, 1, 0, 0), (0, 0, 0, 0)),
        )
        kernel = structure_to_mechanism(st).kernel
        assert kernel[1][1] == (1, 0, 0, 0)
        assert kernel[1][0] == (0, 0, Fraction(1, 2), Fraction(1, 2))

    def test_structure_within_the_slack_converts_to_a_mechanism(self):
        prior = load_prior([(0.5, 0.75), (0.5, 0.25)])
        st = InfoStructure(
            prior=prior,
            signals=("t1", "t2"),
            widths=((0.5, 0.5), (0.5, 0.5)),
            cells=((1.0, 0.5 - 1e-9), (0.5, 0.0)),
        )
        assert check_ip(st, 0.5).satisfied
        back = mechanism_to_structure(structure_to_mechanism(st))
        slack = check_slack()
        for got, want in zip(back.cells, st.cells):
            assert all(abs(a - b) <= slack for a, b in zip(got, want))

    def test_row_with_no_yellow_mass_to_divide_takes_the_widths(self):
        # q within the slack of 0 but no yellow cell: there is nothing to
        # divide by q, so the y=1 row is the secret's widths
        prior = load_prior([(0.5, 0.75), (0.5, 5e-10)])
        st = InfoStructure(
            prior=prior,
            signals=("t1", "t2"),
            widths=((0.5, 0.5), (0.25, 0.75)),
            cells=((1.0, 0.5), (0.0, 0.0)),
        )
        assert structure_to_mechanism(st).kernel[1] == ((0.25, 0.75), (0.25, 0.75))

    def test_round_trip_on_random_float_structures(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            prior = random_binary_prior(rng)
            st = _random_structure(rng, prior, k=4)
            back = mechanism_to_structure(structure_to_mechanism(st))
            a = posterior_summary(st)
            b = posterior_summary(back)
            assert a.p == pytest.approx(b.p, abs=1e-12)
            assert a.q == pytest.approx(b.q, abs=1e-12)


class TestSplitMergeCompress:
    def test_split_preserves_posteriors(self, fixture_solution):
        st = fixture_solution.structure
        split = split_signal(st, "t1", (Fraction(1, 3), Fraction(2, 3)))
        assert split.num_signals == 5
        summary = posterior_summary(split)
        assert summary.q[0] == summary.q[1] == 1
        assert summary.p[0] == Fraction(1, 8)
        assert summary.p[1] == Fraction(2, 8)

    def test_split_rejects_bad_weights(self, fixture_solution):
        st = fixture_solution.structure
        with pytest.raises(BadWeights):
            split_signal(st, "t1", (0.5, 0.4))
        with pytest.raises(BadWeights):
            split_signal(st, "t1", (1.5, -0.5))

    def test_merge_undoes_split(self, fixture_solution):
        st = fixture_solution.structure
        split = split_signal(st, "t1", (Fraction(1, 3), Fraction(2, 3)))
        merged = merge_signals(split, ("t1_1", "t1_2"))
        assert merged.widths == st.widths
        assert merged.cells == st.cells

    def test_merge_absorbs_zero_mass_members_unchecked(self, fixture_prior):
        # "dead" has no mass, so its cell posteriors are never compared
        st = InfoStructure(
            prior=fixture_prior,
            signals=("a", "dead", "b"),
            widths=((0.75, 0.0, 0.25), (0.25, 0.0, 0.75)),
            cells=((1, 0.5, 0), (1, 0.5, 0)),
        )
        merged = merge_signals(st, ("dead", "a"))
        assert merged.signals == ("a", "b")
        assert merged.widths == ((0.75, 0.25), (0.25, 0.75))
        assert merged.cells == ((1, 0), (1, 0))

    def test_merge_leaves_other_float_columns_bit_identical(self):
        rng = np.random.default_rng(5)
        st = _random_structure(rng, random_binary_prior(rng), k=4)
        split = split_signal(st, "t1", (0.3, 0.7))
        merged = merge_signals(split, ("t1_1", "t1_2"))
        assert merged.signals == ("t0", "t1_1", "t2", "t3")
        for s in range(st.prior.n):
            for t in (0, 2, 3):
                assert merged.widths[s][t] == st.widths[s][t]
                assert merged.cells[s][t] == st.cells[s][t]
            assert merged.widths[s][1] == pytest.approx(st.widths[s][1], abs=1e-15)

    def test_merge_rejects_distinct_posteriors(self, fixture_solution):
        st = fixture_solution.structure
        with pytest.raises(NotEquivalentSignals):
            merge_signals(st, ("t1", "t4"))

    def test_compress_merges_duplicates_and_drops_dead_columns(
        self, fixture_prior, fixture_prior_exact
    ):
        st = InfoStructure(
            prior=fixture_prior,
            signals=("a", "dead", "b", "c"),
            widths=(
                (0.375, 0.0, 0.375, 0.25),
                (0.125, 0.0, 0.125, 0.75),
            ),
            cells=((1, 0.5, 1, 0), (1, 0.5, 1, 0)),
        )
        out = compress(st)
        assert out.signals == ("a", "c")
        assert out.widths[0] == (0.75, 0.25)
        exact = InfoStructure(
            prior=fixture_prior_exact,
            signals=st.signals,
            widths=(
                (Fraction(1, 4), 0, Fraction(1, 2), Fraction(1, 4)),
                (Fraction(1, 12), 0, Fraction(1, 6), Fraction(3, 4)),
            ),
            cells=((1, Fraction(1, 2), 1, 0), (1, Fraction(1, 2), 1, 0)),
        )
        out = compress(exact)
        assert out.signals == ("a", "c")
        assert out.widths == (
            (Fraction(3, 4), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(3, 4)),
        )
        assert out.cells == ((1, 0), (1, 0))
        values = [x for grid in (out.widths, out.cells) for row in grid for x in row]
        assert all(isinstance(x, Fraction) for x in values)

    def test_compress_is_idempotent(self, fixture_solution):
        once = compress(fixture_solution.structure)
        twice = compress(once)
        assert once.signals == twice.signals
        assert once.widths == twice.widths

    def test_compress_returns_a_compressed_structure_itself(self, fixture_solution):
        once = compress(fixture_solution.structure)
        assert compress(once) is once

    def test_compress_still_drops_a_lone_zero_mass_column(self, fixture_prior):
        st = InfoStructure(
            prior=fixture_prior,
            signals=("a", "dead", "b"),
            widths=((0.75, 0.0, 0.25), (0.25, 0.0, 0.75)),
            cells=((1, 0, 0), (1, 0, 0)),
        )
        out = compress(st)
        assert out.signals == ("a", "b")
        assert out.widths == ((0.75, 0.25), (0.25, 0.75))


class TestSampling:
    def test_draws_are_deterministic_per_seed(self, fixture_solution):
        m = fixture_solution.mechanism
        a = sample_signal(m, "s0", 1, 7, 50)
        b = sample_signal(m, "s0", 1, 7, 50)
        assert a == b
        assert set(a) <= set(m.signals)

    def test_different_seeds_differ(self, fixture_solution):
        m = fixture_solution.mechanism
        assert sample_signal(m, "s0", 1, 1, 50) != sample_signal(m, "s0", 1, 2, 50)

    def test_zero_mass_context_raises(self):
        prior = load_prior([(0.5, 1.0), (0.5, 0.25)])
        st = InfoStructure(
            prior=prior,
            signals=("t1", "t2"),
            widths=((1.0, 0.0), (0.25, 0.75)),
            cells=((1, 0), (1, 0)),
        )
        m = structure_to_mechanism(st)
        with pytest.raises(ZeroMassContext):
            sample_signal(m, "s0", 0, 1, 10)

    def test_count_zero_gives_empty_list(self, fixture_solution):
        assert sample_signal(fixture_solution.mechanism, "s1", 0, 1, 0) == []

    def test_count_past_numpy_index_range_is_rejected(self, fixture_solution):
        for count in (2**63, 10**20):
            with pytest.raises(ValidationError, match="too large"):
                sample_signal(fixture_solution.mechanism, "s0", 1, 1, count)

    def test_stream_for_seed_42_is_pinned(self, fixture_solution):
        # a change of this stream changes every seeded `ipd sample` output
        assert sample_signal(fixture_solution.mechanism, "s0", 1, 42, 12) == [
            "t1", "t1", "t1", "t1", "t2", "t2", "t3", "t1", "t1", "t1", "t1", "t1",
        ]

    def test_exact_and_float_mechanisms_draw_alike(self, fixture_solution, fixture_prior):
        exact = fixture_solution.mechanism
        twin = solve_binary(fixture_prior, exp_eps=2.0).mechanism
        assert twin.kernel != exact.kernel  # the float row is off in its last bits
        for s in ("s0", "s1"):
            for y in (0, 1):
                draws = sample_signal(twin, s, y, 7, 1000)
                assert sample_signal(exact, s, y, 7, 1000) == draws

    def test_zero_weight_signals_are_never_drawn(self, fixture_solution):
        # rows (s0, Y=1) = (2/3, 2/9, 1/9, 0) and (s0, Y=0) = (0, 0, 0, 1)
        m = fixture_solution.mechanism
        assert set(sample_signal(m, "s0", 1, 3, 100_000)) == {"t1", "t2", "t3"}
        assert set(sample_signal(m, "s0", 0, 3, 100_000)) == {"t4"}


# the last two are not selected but multiplied
WIDTHS = (Fraction(3, 7), 0.375, Fraction(0), 0.0, -0.0, Fraction(1), 1.0, 3, np.float64(0.375))
CELLS = (Fraction(0), Fraction(1), 0.0, 1.0, Fraction(1, 3), 0.25)


def _same(got, want):
    return type(got) is type(want) and repr(got) == repr(want)


class TestCellSelection:
    """A cell of 0 or 1 selects; the result is the product's, type and repr alike."""

    @pytest.mark.parametrize("c", CELLS, ids=repr)
    @pytest.mark.parametrize("w", WIDTHS, ids=repr)
    def test_yellow_and_white_are_the_products(self, w, c):
        assert _same(_yellow(w, c), w * c)
        assert _same(_white(w, c), w * (1 - c))

    @pytest.mark.parametrize("d", (Fraction(1, 3), 0.25, Fraction(1), 1.0), ids=repr)
    @pytest.mark.parametrize("x", WIDTHS, ids=repr)
    def test_over_is_the_quotient(self, x, d):
        assert _same(_over(x, d), x / d)


def _random_structure(rng, prior, k):
    """Random consistent structure: a random kernel pushed through Bayes."""
    from ipd import Mechanism

    kernel = []
    for _ in range(prior.n):
        rows = rng.dirichlet(np.ones(k), size=2)
        kernel.append((tuple(rows[0]), tuple(rows[1])))
    m = Mechanism(
        prior=prior, signals=tuple(f"t{j}" for j in range(k)), kernel=tuple(kernel)
    )
    return mechanism_to_structure(m)


def _degenerate_conditional(monkeypatch, q=0.0):
    """A q=0 (or q=1) row with a 1e-4 width of the impossible state.

    It is built under IPD_TOLERANCE=1e-3. The structure holds under the
    looser slack; once the slack tightens, deriving its mechanism finds
    mass on an impossible state.
    """
    monkeypatch.setenv("IPD_TOLERANCE", "1e-3")
    prior = load_prior([(0.5, 0.5), (0.5, q)])
    if q == 0:  # rows in canonical order, the larger q first
        widths = ((0.5, 0.5), (1e-4, 1 - 1e-4))
    else:
        widths = ((1 - 1e-4, 1e-4), (0.5, 0.5))
    st = InfoStructure(prior, ("a", "b"), widths, ((1, 0), (1, 0)))
    monkeypatch.delenv("IPD_TOLERANCE")
    structure_to_mechanism(st)


def _two_signals():
    """A binary structure whose second signal is named as a split of the first."""
    prior = load_prior([(0.5, 0.75), (0.5, 0.25)])
    return InfoStructure(prior, ("y", "y_2"), ((0.75, 0.25), (0.25, 0.75)), ((1, 0), (1, 0)))


# case id: (error type, message pattern, the call that raises it)
REJECTIONS = {
    "degenerate-conditional": (
        DegenerateConditional, "q=0 but yellow mass", _degenerate_conditional
    ),
    "degenerate-conditional-white": (
        DegenerateConditional, "q=1 but white mass",
        lambda monkeypatch: _degenerate_conditional(monkeypatch, 1.0),
    ),
    "summary-field-lengths": (
        ValidationError, "equal length",
        lambda _: PosteriorSummary(("a", "b"), (1,), (0.5,), ((1,),)),
    ),
    "summary-no-signal": (
        ValidationError, "at least one signal", lambda _: PosteriorSummary((), (), (), ())
    ),
    "summary-zero-mass": (
        NonPositiveMass, "positive-mass",
        lambda _: PosteriorSummary(("a", "b"), (1, 0), (0.5, 0.5), ((1,), (1,))),
    ),
    "summary-mass-sum": (
        MassNotNormalized, "signal masses",
        lambda _: PosteriorSummary(("a",), (0.5,), (0.5,), ((1,),)),
    ),
    "summary-posterior-range": (
        ConditionalOutOfRange, "outside",
        lambda _: PosteriorSummary(("a",), (1,), (1.5,), ((1,),)),
    ),
    "summary-secret-posteriors": (
        MassNotNormalized, "secret posteriors",
        lambda _: PosteriorSummary(("a",), (1,), (0.5,), ((0.5,),)),
    ),
    "split-label-collision": (
        ValidationError, "collide", lambda _: split_signal(_two_signals(), "y", (0.5, 0.5))
    ),
    "split-no-weights": (
        BadWeights, "non-empty", lambda _: split_signal(_two_signals(), "y", ())
    ),
    "sample-state-2": (
        ValidationError, "state must be 0 or 1",
        lambda _: sample_signal(structure_to_mechanism(_two_signals()), "s0", 2, 1, 1),
    ),
    "merge-empty-group": (
        ValidationError, "non-empty", lambda _: merge_signals(_two_signals(), [])
    ),
    "prior-perm": (
        ValidationError, "permutation",
        lambda _: Prior(("a", "b"), (0.5, 0.5), (0.75, 0.25), (1, 1)),
    ),
    "prior-field-lengths": (
        ValidationError, "equal length",
        lambda _: Prior(("a", "b"), (1.0,), (0.75, 0.25), (1, 2)),
    ),
    "prior-increasing-q": (
        ValidationError, "non-increasing",
        lambda _: Prior(("a", "b"), (0.5, 0.5), (0.25, 0.75), (1, 2)),
    ),
    "cut-assignment-one-secret": (
        ValidationError, "at least 2 secrets", lambda _: CutAssignment(1, (), 2)
    ),
    "cut-assignment-budget-below-1": (
        ValidationError, "at least 1", lambda _: CutAssignment(2, (), 0.5)
    ),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_typed_rejection(case, monkeypatch):
    error, pattern, call = REJECTIONS[case]
    with pytest.raises(error, match=pattern) as raised:
        call(monkeypatch)
    assert type(raised.value) is error
