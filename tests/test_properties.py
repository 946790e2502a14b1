"""Property-based tests over randomly generated priors and structures.

The strategies build valid objects by construction (masses drawn then
normalized, kernels drawn row-wise on the simplex) so hypothesis shrinks
over meaningful inputs instead of fighting the validators.
"""

import math
import sys
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ipd import (
    BUILTIN_FAMILIES,
    InfoStructure,
    Mechanism,
    UtilityFn,
    ValidationError,
    blackwell_dominates,
    check_ip,
    check_slack,
    expected_utility,
    load_prior,
    mechanism_to_structure,
    posterior_summary,
    solve_binary,
    solve_general,
    solve_perfect_privacy,
    structure_to_mechanism,
    utility_gain,
)
from ipd.numeric import PATH_TOL

_unit = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)

_reward_utilities = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.lists(
        st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=20),
            min_size=k,
            max_size=k,
        ),
        min_size=2,
        max_size=2,
    )
).map(lambda rows: UtilityFn("rewards", rewards=tuple(map(tuple, rows))))


@st.composite
def binary_priors(draw):
    p0 = draw(_unit)
    qa = draw(_unit)
    qb = draw(_unit)
    return load_prior([(p0, qa), (1.0 - p0, qb)])


@st.composite
def random_mechanisms(draw, max_signals=5):
    prior = draw(binary_priors())
    k = draw(st.integers(min_value=1, max_value=max_signals))
    kernel = []
    for _ in range(prior.n):
        rows = []
        for _ in range(2):
            raw = draw(
                st.lists(
                    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
                    min_size=k,
                    max_size=k,
                )
            )
            total = sum(raw)
            rows.append(tuple(x / total for x in raw))
        kernel.append(tuple(rows))
    return Mechanism(
        prior=prior,
        signals=tuple(f"t{j}" for j in range(k)),
        kernel=tuple(kernel),
    )


@given(random_mechanisms())
@settings(max_examples=60, deadline=None)
def test_mechanism_structure_round_trip_preserves_the_joint(m):
    st_ = mechanism_to_structure(m)
    back = structure_to_mechanism(st_)
    # P(T, Y | S) must be identical; the kernel itself may differ on
    # zero-width cells, so compare the joint rather than the rows
    for s in range(m.prior.n):
        q = m.prior.q[s]
        for y, weight in ((0, 1 - q), (1, q)):
            for t in range(len(m.signals)):
                a = weight * m.kernel[s][y][t]
                b = weight * back.kernel[s][y][t]
                assert math.isclose(a, b, abs_tol=1e-12)


@given(random_mechanisms())
@settings(max_examples=60, deadline=None)
def test_posterior_summaries_are_martingales(m):
    summary = posterior_summary(mechanism_to_structure(m))
    assert math.isclose(float(summary.mean), float(m.prior.p_y1), abs_tol=1e-12)
    assert math.isclose(float(sum(summary.p)), 1.0, abs_tol=1e-12)


@given(random_mechanisms())
@settings(max_examples=40, deadline=None)
def test_every_summary_is_equivalent_to_itself(m):
    summary = posterior_summary(mechanism_to_structure(m))
    verdict = blackwell_dominates(summary, summary)
    assert verdict.dominates and verdict.equivalent


@st.composite
def structures_within_the_slack(draw):
    """(structure, exact): rows whose yellow mass misses q by up to the check slack.

    Each row's widths and cells are drawn first, cells of 0 and 1 among them,
    so a row may hold no yellow or no white mass. Its q is the row's yellow
    mass moved by up to the slack either way, clipped to [0, 1]. The whole
    structure is Fractions or floats; a float one that InfoStructure refuses
    (its round-off past the slack) is not drawn.
    """
    exact = draw(st.booleans())
    n = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=1, max_value=4))
    slack = Fraction(check_slack())
    shift = st.sampled_from([-1, 1]) | st.fractions(min_value=-1, max_value=1, max_denominator=99)
    cell = st.sampled_from([Fraction(0), Fraction(1)]) | st.fractions(0, 1, max_denominator=16)
    rows = []
    for _ in range(n):
        raw = draw(st.lists(st.integers(0, 8), min_size=k, max_size=k).filter(any))
        widths = [Fraction(x, sum(raw)) for x in raw]
        cells = draw(st.lists(cell, min_size=k, max_size=k))
        yellow = sum(x * c for x, c in zip(widths, cells))
        rows.append((min(max(yellow + draw(shift) * slack, 0), 1), widths, cells))
    rows.sort(key=lambda row: -row[0])  # load_prior's order: q descending
    masses = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    scalar = Fraction if exact else float
    prior = load_prior(
        [(scalar(Fraction(x, sum(masses))), scalar(q)) for x, (q, _, _) in zip(masses, rows)]
    )
    try:
        structure = InfoStructure(
            prior=prior,
            signals=tuple(f"t{j}" for j in range(k)),
            widths=tuple(tuple(map(scalar, widths)) for _, widths, _ in rows),
            cells=tuple(tuple(map(scalar, cells)) for _, _, cells in rows),
        )
    except ValidationError:
        assume(False)
    return structure, exact


@given(structures_within_the_slack())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_every_accepted_structure_converts_to_a_mechanism(drawn):
    # Dividing a row by q when its yellow mass misses q by d moves each
    # cell's yellow and white mass, and each width, by at most |d|. A cell
    # posterior can move by more: |d| c (1 - c) / (q (1 - q)) to first order.
    structure, exact = drawn
    back = mechanism_to_structure(structure_to_mechanism(structure))
    bound = check_slack() if exact else check_slack() + 4 * sys.float_info.epsilon
    for s in range(structure.prior.n):
        for x, c, y, d in zip(
            structure.widths[s], structure.cells[s], back.widths[s], back.cells[s]
        ):
            assert abs(x - y) <= bound
            assert abs(x * c - y * d) <= bound
            assert abs(x * (1 - c) - y * (1 - d)) <= bound


@given(binary_priors(), st.floats(min_value=0.05, max_value=2.5, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_binary_optimum_is_always_private(prior, eps):
    solution = solve_binary(prior, eps)
    assert check_ip(solution.structure, eps).satisfied


@given(binary_priors(), st.floats(min_value=0.05, max_value=2.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_more_budget_never_hurts(prior, eps):
    u = UtilityFn("abs")
    tight = expected_utility(solve_binary(prior, eps).structure, u)
    loose = expected_utility(solve_binary(prior, eps * 1.5).structure, u)
    floor = expected_utility(solve_perfect_privacy(prior).structure, u)
    assert float(loose) >= float(tight) - 1e-12
    assert float(tight) >= float(floor) - 1e-12


@given(binary_priors(), st.floats(min_value=0.05, max_value=2.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_bigger_budget_blackwell_dominates(prior, eps):
    small = posterior_summary(solve_binary(prior, eps).structure)
    large = posterior_summary(solve_binary(prior, eps * 2).structure)
    assert blackwell_dominates(large, small).dominates


@given(
    st.one_of(st.sampled_from(BUILTIN_FAMILIES).map(UtilityFn), _reward_utilities),
    st.integers(min_value=2, max_value=200),
)
@settings(max_examples=60, deadline=None)
def test_every_utility_is_convex(u, steps):
    # UtilityFn does not check convexity: every built-in family is convex,
    # and a reward utility is a maximum of affine functions of q. Exact
    # grid points keep every family but negentropy free of rounding.
    values = [u(Fraction(i, steps)) for i in range(steps + 1)]
    second = [a - 2 * b + c for a, b, c in zip(values, values[1:], values[2:])]
    assert min(second) >= (-1e-12 if u.family == "negentropy" else 0)


_rational_unit = st.fractions(min_value=0, max_value=1, max_denominator=40)


@st.composite
def rational_binary_points(draw):
    """A rational binary prior with an exact budget, conditionals 0 and 1 allowed."""
    p0 = draw(st.fractions(min_value=Fraction(1, 40), max_value=Fraction(39, 40),
                           max_denominator=40))
    pairs = [(p0, draw(_rational_unit)), (1 - p0, draw(_rational_unit))]
    w = draw(st.fractions(min_value=1, max_value=12, max_denominator=16))
    return pairs, w


def _kernel_by_label(m):
    return {
        (s, y, label): x
        for s, by_state in enumerate(m.kernel)
        for y, row in enumerate(by_state)
        for label, x in zip(m.signals, row)
    }


@given(rational_binary_points())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_exact_binary_pipeline_is_exact_and_matches_its_float_twin(point):
    pairs, w = point
    exact_prior = load_prior(pairs)
    twin_prior = load_prior([(float(p), float(q)) for p, q in pairs])
    exact = solve_binary(exact_prior, exp_eps=w)
    twin = solve_binary(twin_prior, exp_eps=float(w))

    widths = [x for row in exact.structure.widths for x in row]
    assert all(type(x) is Fraction for x in widths)
    exact_kernel = _kernel_by_label(exact.mechanism)
    assert all(type(x) is Fraction for x in exact_kernel.values())
    for a, b in zip(exact.widths_by_signal, twin.widths_by_signal):
        for x, y in zip(a, b):
            assert abs(float(x) - y) <= PATH_TOL
    # a column the exact solve leaves empty may keep a sliver in floats
    twin_kernel = _kernel_by_label(twin.mechanism)
    for key in exact_kernel.keys() | twin_kernel.keys():
        assert abs(float(exact_kernel.get(key, 0)) - twin_kernel.get(key, 0.0)) <= PATH_TOL

    for family in BUILTIN_FAMILIES:
        u = UtilityFn(family)
        report = utility_gain(exact_prior, u=u, exp_eps=w)
        twin_report = utility_gain(twin_prior, u=u, exp_eps=float(w))
        if family != "negentropy":
            assert type(report.u_eps) is Fraction and type(report.u_0) is Fraction
        assert abs(float(report.u_eps) - twin_report.u_eps) <= PATH_TOL
        assert abs(float(report.u_0) - twin_report.u_0) <= PATH_TOL

    assert check_ip(exact.structure, exp_eps=w).satisfied
    assert check_ip(twin.structure, exp_eps=float(w)).satisfied


# Properties of the general optimum that the theory implies, checked on
# n = 3..6 (the split one up to 6), exact and float priors, every family.
_REWARDS = UtilityFn("rewards", ((3, 0, 1), (0, 2, 1)))
_FAMILIES = [*map(UtilityFn, BUILTIN_FAMILIES), _REWARDS]


@st.composite
def general_priors(draw, min_n=3, max_n=6, zero_one=True, exact=None):
    """Pairs for n secrets in user order; a q of 0 or 1 when zero_one allows.

    The pairs are Fractions when exact is true, floats when it is false, and
    either when it is None.
    """
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if exact is None:
        exact = draw(st.booleans())
    q_values = st.fractions(min_value=0, max_value=1, max_denominator=20)
    if not zero_one:
        q_values = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                                max_denominator=20)
    q = draw(st.lists(q_values, min_size=n, max_size=n))
    p = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n))
    pairs = [(Fraction(x, sum(p)), y) for x, y in zip(p, q)]
    if not exact:
        pairs = [(float(x), float(y)) for x, y in pairs]
    return pairs


_general_eps = st.floats(min_value=0.1, max_value=3.0, allow_nan=False)


@given(
    general_priors(min_n=2, max_n=5),
    _general_eps,
    st.sampled_from(["abs", "quadratic"]),
    st.data(),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_splitting_a_secret_keeps_the_general_optimum(pairs, eps, family, data):
    # Both halves share the conditional, so the joint law of (Y, signal) of
    # any structure carries over either way, and mixing the halves' kernels
    # keeps every posterior-odds ratio within the budget.
    k = data.draw(st.integers(min_value=0, max_value=len(pairs) - 1))
    share = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)]))
    p, q = pairs[k]
    share = share if isinstance(p, Fraction) else float(share)
    split = [*pairs[:k], (p * share, q), (p - p * share, q), *pairs[k + 1 :]]
    u = UtilityFn(family)
    whole = solve_general(load_prior(pairs), eps, u).utility
    assert abs(solve_general(load_prior(split), eps, u).utility - whole) <= 1e-11


@given(general_priors(), _general_eps, st.sampled_from(_FAMILIES), st.randoms())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_relabeling_the_secrets_keeps_the_general_utility(pairs, eps, u, rng):
    order = list(range(len(pairs)))
    rng.shuffle(order)
    labels = [f"r{k}" for k in range(len(pairs))]
    moved = load_prior([pairs[k] for k in order], labels=labels)
    utility = solve_general(load_prior(pairs), eps, u).utility
    assert abs(solve_general(moved, eps, u).utility - utility) <= 1e-11


@given(
    general_priors(zero_one=False),
    st.lists(st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
             min_size=2, max_size=2, unique=True).map(sorted),
    st.sampled_from(_FAMILIES),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_more_budget_never_hurts_the_general_optimum(pairs, budgets, u):
    prior = load_prior(pairs)
    tight, loose = (solve_general(prior, eps, u).utility for eps in budgets)
    assert loose >= tight - 1e-11


@given(
    general_priors(exact=True),
    st.fractions(min_value=1, max_value=20, max_denominator=16).filter(lambda w: w > 1),
    st.sampled_from(_FAMILIES),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_exact_general_optimum_matches_its_float_twin(pairs, w, u):
    exact = solve_general(load_prior(pairs), u=u, exp_eps=w).utility
    twin_pairs = [(float(p), float(q)) for p, q in pairs]
    twin = solve_general(load_prior(twin_pairs), u=u, exp_eps=float(w)).utility
    assert abs(exact - twin) <= PATH_TOL
