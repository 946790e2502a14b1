"""The integer paths of exact inputs, and the float paths that must not take them.

When every prior value, width and cell is exact, ipd.model and ipd.analysis
read them as integers: column statistics, expected utility, the kernel, the
privacy check, the regime and the validation sums each normalize an output
Fraction once instead of going through Fraction's operators. The references
below are those operators' versions, kept as they stood; every answer must
equal its reference by repr, so value, type and lowest terms alike. Float
and mixed inputs keep the references' own code, which the second half
checks with the integer helpers patched to fail.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipd.analysis
import ipd.model
from ipd import (
    InfoStructure,
    Mechanism,
    MassNotNormalized,
    UtilityFn,
    check_ip,
    classify_regime,
    expected_utility,
    load_prior,
    solve_binary,
    solve_general,
    solve_perfect_privacy,
    structure_to_mechanism,
)
from ipd.analysis import IpReport
from ipd.binary import Regime, RegimeTag
from ipd.model import column_stats
from ipd.numeric import (
    NORM_TOL,
    check_slack,
    exact_sum,
    exactify,
    far,
    is_exact,
    log_of,
    log_ratio,
    near,
)

F = Fraction
UTILITIES = (
    UtilityFn("abs"),
    UtilityFn("quadratic"),
    UtilityFn("negentropy"),
    UtilityFn("rewards", ((F(3), F(0), F(1, 2)), (F(0), F(2), F(1, 3)))),
    UtilityFn("rewards", ((3.0, 0.0, 0.5), (0.0, 2.0, 0.25))),
)


# The Fraction-operator versions: builtin sum over the plain products and
# quotients, as the package computed them before its integer paths.


def operator_column_stats(st_):
    p, secrets = st_.prior.p, range(st_.prior.n)
    stats = []
    for t in range(st_.num_signals):
        joint = [p[s] * st_.widths[s][t] for s in secrets]
        mass = sum(joint)
        if mass == 0:
            stats.append((mass, None, None))
            continue
        yellow = sum(x * st_.cells[s][t] for s, x in zip(secrets, joint))
        stats.append((mass, yellow / mass, tuple(x / mass for x in joint)))
    return tuple(stats)


def operator_expected_utility(st_, u):
    return sum(
        mass * u(post) for mass, post, _ in operator_column_stats(st_) if post is not None
    )


def _operator_unit_row(row, widths):
    total = sum(row)
    if not far(total, 1, NORM_TOL):
        return row
    if total == 0:
        return widths
    return tuple(x / total for x in row)


def operator_mechanism(st_):
    prior, k = st_.prior, st_.num_signals
    posts = {t: c[1] for t, c in enumerate(operator_column_stats(st_)) if c[1] is not None}
    top = max(posts, key=posts.__getitem__)
    bot = min(posts, key=posts.__getitem__)
    kernel = []
    for s in range(prior.n):
        qs, widths, cells = prior.q[s], st_.widths[s], st_.cells[s]
        if qs > 0:
            row1 = _operator_unit_row(tuple(w * c / qs for w, c in zip(widths, cells)), widths)
        else:
            row1 = tuple(1 if t == top else 0 for t in range(k))
        if qs < 1:
            row0 = tuple(w * (1 - c) / (1 - qs) for w, c in zip(widths, cells))
            row0 = _operator_unit_row(row0, widths)
        else:
            row0 = tuple(1 if t == bot else 0 for t in range(k))
        kernel.append((row0, row1))
    return Mechanism(prior=prior, signals=st_.signals, kernel=tuple(kernel))


def operator_check_ip(st_, bound):
    eps_f = log_of(bound)
    slack = check_slack()
    exact = is_exact(bound) and all(is_exact(x) for row in st_.widths for x in row)
    secrets = st_.prior.secrets
    max_log_ratio, witness, binding = 0.0, None, {}
    for t, label in enumerate(st_.signals):
        column = [(st_.widths[s][t], s) for s in range(st_.prior.n)]
        positive = [(x, s) for x, s in column if x > 0]
        if not positive:
            continue
        zeros = [s for x, s in column if x == 0]
        hi, s_hi = max(positive)
        lo, s_lo = min(positive)
        if zeros:
            max_log_ratio = float("inf")
            binding[label] = False
            if witness is None:
                witness = (label, secrets[s_hi], secrets[zeros[0]])
            continue
        col_log = log_of(hi / lo)
        max_log_ratio = max(max_log_ratio, col_log)
        if exact:
            binding[label] = hi == bound * lo
            ok = hi <= bound * lo
        else:
            binding[label] = near(col_log, eps_f, slack)
            ok = col_log <= eps_f + slack
        if not ok and witness is None:
            witness = (label, secrets[s_hi], secrets[s_lo])
    return IpReport(max_log_ratio=max_log_ratio, witness=witness, binding=binding)


def operator_regime(prior, w):
    q0, q1 = prior.q
    if q0 == q1:
        return Regime(RegimeTag.FULL_DISCLOSURE, 1, 1)
    r1 = float("inf") if q1 == 0 else q0 / q1
    r2 = float("inf") if q0 == 1 else (1 - q1) / (1 - q0)
    r1_within = q0 <= w * q1
    r2_within = (1 - q1) <= w * (1 - q0)
    if r1_within and r2_within:
        tag = RegimeTag.FULL_DISCLOSURE
    elif not r2_within and (r1_within or w * q1 >= 1 - q1):
        tag = RegimeTag.THREE_SIGNAL_T3
    elif not r1_within and (r2_within or q0 <= w * (1 - q0)):
        tag = RegimeTag.THREE_SIGNAL_T2
    else:
        tag = RegimeTag.FOUR_SIGNAL
    return Regime(tag, r1, r2)


def _assert_as_operators(st_, bound):
    assert repr(column_stats(st_)) == repr(operator_column_stats(st_))
    assert repr(structure_to_mechanism(st_)) == repr(operator_mechanism(st_))
    assert repr(check_ip(st_, exp_eps=bound)) == repr(operator_check_ip(st_, bound))
    for u in UTILITIES:
        assert repr(expected_utility(st_, u)) == repr(operator_expected_utility(st_, u)), u


# Exact inputs.

BUDGETS = (F(1), F(9, 8), F(3, 2), F(5, 2), F(7), 2, F(10**6 + 1, 10**6))


def _exact_binary_priors():
    """Seeded exact binary priors, a q of 0 or 1 and equal q among them."""
    rng = random.Random(38)
    priors = [
        load_prior([(F(1, 2), F(3, 4)), (F(1, 2), F(1, 4))]),
        load_prior([(F(1, 3), F(1)), (F(2, 3), F(0))]),
        load_prior([(F(2, 5), F(1, 2)), (F(3, 5), F(1, 2))]),
    ]
    for _ in range(30):
        p0 = F(rng.randint(1, 29), 30)
        pairs = [(p0, F(rng.randint(0, 40), 40)), (1 - p0, F(rng.randint(0, 40), 40))]
        priors.append(load_prior(pairs))
    return priors


def _exact_structure(rng, n, k):
    """A random exact structure: cells off 0 and 1, zero widths, a zero-mass
    column and rows with q of 0 or 1 now and then."""
    empty = rng.randrange(k) if k > 1 and rng.random() < 0.4 else None
    rows = []
    for _ in range(n):
        raw = [0 if t == empty else rng.choice((0, 1, 2, 3, 5)) for t in range(k)]
        if not any(raw):
            raw[1 if empty == 0 else 0] = 1
        widths = tuple(F(x, sum(raw)) for x in raw)
        kind = rng.random()
        if kind < 0.15:
            cells = (F(0),) * k
        elif kind < 0.3:
            cells = (F(1),) * k
        else:
            cells = tuple(F(rng.randint(0, 6), 6) for _ in range(k))
        q = sum(w * c for w, c in zip(widths, cells))
        rows.append((q, widths, cells))
    rows.sort(key=lambda row: -row[0])  # canonical order, stable on ties
    raw_masses = [rng.randint(1, 9) for _ in range(n)]
    pairs = [(F(m, sum(raw_masses)), q) for m, (q, _, _) in zip(raw_masses, rows)]
    return InfoStructure(
        prior=load_prior(pairs),
        signals=tuple(f"t{t}" for t in range(k)),
        widths=tuple(w for _, w, _ in rows),
        cells=tuple(c for _, _, c in rows),
    )


class TestExactInputs:
    """Exact structures answer as Fraction's operators did, by repr."""

    def test_binary_solutions_in_every_regime(self):
        seen = set()
        for prior in _exact_binary_priors():
            for w in BUDGETS:
                assert repr(classify_regime(prior, exp_eps=w)) == repr(
                    operator_regime(prior, exactify(w))
                )
                for solution in (solve_binary(prior, exp_eps=w), solve_perfect_privacy(prior)):
                    st_ = solution.structure
                    assert st_._exact
                    _assert_as_operators(st_, exactify(w))
                    seen.add(solution.regime.tag)
        assert seen == set(RegimeTag)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_structures(self, n):
        rng = random.Random(n)
        for _ in range(40):
            st_ = _exact_structure(rng, n, rng.randint(1, 5))
            assert st_._exact
            for w in (F(1), F(3, 2), F(4), F(10**9)):
                _assert_as_operators(st_, w)

    def test_a_mechanism_checks_only_the_rows_of_contexts_with_mass(self):
        # q = 1 leaves the y=0 row of that secret unchecked, as 1 - q = 0
        prior = load_prior([(F(1, 2), F(1)), (F(1, 2), F(1, 3))])
        loose = (F(1, 3), F(1, 3))
        Mechanism(prior, ("a", "b"), ((loose, (F(1), F(0))), ((F(1), F(0)), (F(0), F(1)))))
        with pytest.raises(MassNotNormalized, match=r"\('s1', y=0\) sums to 0.6666"):
            Mechanism(prior, ("a", "b"), (((F(1), F(0)), (F(1), F(0))), (loose, (F(0), F(1)))))

    def test_unnormalized_exact_inputs_are_refused_with_the_sum(self):
        with pytest.raises(MassNotNormalized, match="sum to 1.000001$"):
            load_prior([(F(1, 2), F(1, 2)), (F(1, 2) + F(1, 10**6), F(1, 4))])
        prior = load_prior([(F(1, 2), F(1, 2)), (F(1, 2), F(1, 4))])
        with pytest.raises(MassNotNormalized, match="sum to 0.75"):
            InfoStructure(prior, ("a", "b"), ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 4))),
                          ((F(1), F(0)), (F(1, 2), F(0))))


_exact_scalars = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**12),
    st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


class TestExactSum:
    @given(st.lists(_exact_scalars, max_size=8))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_it_is_builtin_sum_by_repr(self, values):
        assert repr(exact_sum(values)) == repr(sum(values))

    @given(st.lists(st.integers(-(10**30), 10**30), max_size=8))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_ints_alone_stay_int(self, values):
        total = exact_sum(iter(values))
        assert type(total) is int and total == sum(values)

    def test_corners(self):
        assert repr(exact_sum([])) == "0"
        assert repr(exact_sum([F(1, 3), F(2, 3)])) == "Fraction(1, 1)"
        assert repr(exact_sum([1, F(-1)])) == "Fraction(0, 1)"


@pytest.mark.parametrize(
    "num, den",
    [
        (3, 2), (1, 1), (10**6 + 1, 10**6), (2**1100, 3), (9**999, 7),
        (7**500 * 2 * 11, 7**100 * 3 * 11),  # not in lowest terms, past the float range
        (3**700 * 5, 5),
    ],
)
def test_log_ratio_is_the_log_of_the_fraction(num, den):
    assert repr(log_ratio(num, den)) == repr(log_of(F(num, den)))


# Float and mixed inputs.


@pytest.fixture
def float_cases():
    """Structures whose arithmetic is not all exact, with budgets for them."""
    exact_prior = load_prior([(F(1, 3), F(9, 10)), (F(1, 6), F(1, 2)), (F(1, 2), F(1, 10))])
    float_prior = load_prior([(0.3, 0.8), (0.7, 0.35)])
    binary_prior = load_prior([(F(1, 2), F(3, 4)), (F(1, 2), F(1, 4))])
    mixed_prior = load_prior([(F(1, 4), 0.75), (0.75, F(1, 4))])
    general = solve_general(exact_prior, u=UtilityFn("quadratic"), exp_eps=F(3, 2)).structure
    floats = solve_binary(float_prior, eps=0.7).structure
    cases = [
        (floats, 2.0137527074704766),
        (general, F(3, 2)),  # float widths on an exact prior
        (solve_binary(mixed_prior, exp_eps=F(2)).structure, F(2)),
        # a float budget on an exact prior: float middle widths beside exact ones
        (solve_binary(binary_prior, eps=0.5).structure, 1.6),
    ]
    # numpy masses and conditionals beside Python float widths
    numpy_prior = load_prior(
        [(np.float64(p), np.float64(q)) for p, q in zip(float_prior.p, float_prior.q)]
    )
    cases.append((InfoStructure(numpy_prior, floats.signals, floats.widths, floats.cells), 2.0))
    for st_ in (floats, general):
        for cells in (st_.cells, [[np.float64(c) for c in row] for row in st_.cells]):
            widths = [[np.float64(w) for w in row] for row in st_.widths]
            cases.append((InfoStructure(st_.prior, st_.signals, widths, cells), 2.0))
    # exact widths beside float cells, under a float budget (exact widths and
    # an exact budget take check_ip's exact branch, whatever the cells)
    exact = solve_binary(binary_prior, exp_eps=F(2)).structure
    cells = [[float(c) for c in row] for row in exact.cells]
    cases.append((InfoStructure(binary_prior, exact.signals, exact.widths, cells), 2.0))
    return cases


def _fail(*args, **kwargs):
    raise AssertionError("a float or mixed input reached an integer path")


class TestFloatInputs:
    """Float and mixed inputs keep the operators' code, never the integer paths."""

    @pytest.fixture
    def no_integer_paths(self, monkeypatch, float_cases):  # the cases are built first
        for module in (ipd.model, ipd.analysis):
            for name in ("exact_sum", "common_terms", "log_ratio"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, _fail)
        monkeypatch.setattr(UtilityFn, "ratio_at", _fail)
        monkeypatch.setattr(InfoStructure, "_exact_column_stats", _fail)

    def test_answers_are_the_operators(self, float_cases, no_integer_paths):
        for st_, bound in float_cases:
            # rebuilt under the patches, so that validation runs there too
            fresh = InfoStructure(st_.prior, st_.signals, st_.widths, st_.cells)
            assert not fresh._exact
            _assert_as_operators(fresh, bound)

    @pytest.mark.parametrize("case", [4, 5, 7], ids=["numpy-prior", "float-prior", "exact-prior"])
    def test_numpy_widths_keep_their_type(self, float_cases, case):
        st_, _ = float_cases[case]
        stats = column_stats(st_)
        assert repr(stats) == repr(operator_column_stats(st_))
        assert all(type(mass) is np.float64 for mass, _, _ in stats)

    def test_a_row_of_fractions_and_floats_sums_as_builtin_sum(self):
        # s1's yellow row is (Fraction, 0.0) over a q 1e-11 off its yellow
        # mass, so it misses 1 and is divided by its sum; builtin sum turns
        # that sum into a float at the 0.0, and so the whole row
        prior = load_prior([(F(1, 2), F(3, 4)), (F(1, 2), F(1, 2) + F(1, 10**11))])
        st_ = InfoStructure(
            prior, ("a", "b"), ((F(1, 2), F(1, 2)), (F(1, 2), 0.5)), ((1, F(1, 2)), (1, 0))
        )
        kernel = structure_to_mechanism(st_).kernel
        assert repr(kernel) == repr(operator_mechanism(st_).kernel)
        assert type(kernel[1][1][0]) is float

    def test_float_budget_on_an_exact_prior_classifies_as_operators(self):
        for prior in _exact_binary_priors()[:10]:
            for w in (1.0, 1.125, 2.5, math.exp(3.0)):
                assert repr(classify_regime(prior, exp_eps=w)) == repr(operator_regime(prior, w))
