"""The tolerance and range helpers of ipd.numeric, and the layers that use them.

far, near and outside_unit must answer exactly as the expressions they
stand for. The first tests check that on drawn scalars of every type; the
corpus test then checks the model and analysis layers that call them, and
the column statistics that form each joint mass once, against the formulas
they replaced, kept here as the reference: same values, same types.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipd import (
    InfoStructure,
    Mechanism,
    UtilityFn,
    ValidationError,
    check_ip,
    check_regions,
    expected_utility,
    load_prior,
    mechanism_to_structure,
    solve_binary,
    solve_general,
    solve_perfect_privacy,
    split_signal,
    structure_to_mechanism,
)
from ipd.analysis import _FLAGS, _staircase_violation
from ipd.binary import RegimeTag
from ipd.model import column_stats, compress
from ipd.numeric import (
    CHECK_TOL,
    NORM_TOL,
    PATH_TOL,
    check_slack,
    exactify,
    far,
    is_exact,
    log_of,
    near,
    outside_unit,
    ratio_bound,
)

ULP_ABOVE_1 = math.nextafter(1.0, 2.0)
ULP_BELOW_1 = math.nextafter(1.0, 0.0)
SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
    ULP_ABOVE_1, ULP_BELOW_1, 1e-12, 1e-9, 1e308,
    math.inf, -math.inf, math.nan,
)
_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
_huge_fractions = st.builds(
    lambda f, up: f * 2**1100 if up else f / 2**1100,
    st.fractions(max_denominator=1000).filter(bool),
    st.booleans(),
)
_scalars = st.one_of(
    st.integers(),
    st.integers(min_value=-2, max_value=2),
    st.fractions(),
    st.fractions(min_value=-2, max_value=2, max_denominator=12),
    _huge_fractions,
    _floats,
)
_tolerances = st.one_of(
    st.sampled_from((0, 0.0, NORM_TOL, CHECK_TOL, PATH_TOL, 1.0, Fraction(1, 3))),
    st.floats(min_value=0.0, max_value=10.0),
    st.fractions(min_value=0, max_value=2),
)


def _outcome(fn, *args):
    """What fn answers, or the type of what it raises."""
    try:
        return fn(*args)
    except ArithmeticError as exc:  # a Fraction or int past the float range
        return type(exc)


def _agree(helper, expression, *args):
    got, want = _outcome(helper, *args), _outcome(expression, *args)
    assert type(got) is type(want) and got == want, (args, got, want)


@given(_scalars, _scalars, _tolerances)
@settings(max_examples=400, deadline=None, derandomize=True)
@example(math.inf, math.inf, 0.0)
@example(-math.inf, -math.inf, 1.0)
@example(math.nan, math.nan, 1.0)
@example(-0.0, 0.0, 0.0)
@example(Fraction(1, 2), 0.5, 0.0)
@example(Fraction(2**1100), 1.0, NORM_TOL)
@example(10**400, 10**400, 0.0)
@example(True, 1, 0.0)
def test_far_and_near_answer_as_the_expressions_they_replace(a, b, tol):
    _agree(far, lambda a, b, tol: abs(a - b) > tol, a, b, tol)
    _agree(near, lambda a, b, tol: abs(a - b) <= tol, a, b, tol)


@given(_scalars)
@settings(max_examples=400, deadline=None, derandomize=True)
@example(Fraction(0))
@example(Fraction(1))
@example(Fraction(-1, 10**400))
@example(1 + Fraction(1, 10**400))
@example(ULP_ABOVE_1)
@example(-0.0)
@example(math.nan)
@example(np.float32(1.5))
def test_outside_unit_answers_as_the_range_test_it_replaces(x):
    _agree(outside_unit, lambda x: x < 0 or x > 1, x)


@pytest.mark.parametrize(
    "exp_eps",
    [Fraction(1), Fraction(3, 2), Fraction(1, 2), Fraction(2**1100),
     Fraction(int(1.7976931348623157e308)), Fraction(int(1.7976931348623157e308)) + 1,
     1, 2, 1.5, 0.5],
)
def test_ratio_bound_keeps_its_answers_and_errors(exp_eps):
    # the Fraction branch reads the integer fields; other types take the old path
    def seed(exp_eps):
        bound = Fraction(exp_eps) if isinstance(exp_eps, int) else exp_eps
        if bound < 1:
            return "below"
        if bound > int(1.7976931348623157e308):
            return "above"
        return bound

    want = seed(exp_eps)
    try:
        got = ratio_bound(exp_eps=exp_eps)
    except ValueError as exc:
        got = "below" if ">= 1" in str(exc) else "above"
    assert type(got) is type(want) and got == want


@pytest.mark.parametrize("x", [0.375, -0.0, np.float64(0.375), Fraction(3, 7), Fraction(0)])
def test_exactify_passes_floats_and_fractions_through_as_they_are(x):
    assert exactify(x) is x


@pytest.mark.parametrize("x", [0, 1, -3, 10**400])
def test_exactify_promotes_ints_to_fractions(x):
    got = exactify(x)
    assert type(got) is Fraction and got == x


@pytest.mark.parametrize("x", [True, False, "0.5", None, 1j, np.bool_(True)])
def test_exactify_refuses_what_is_not_a_real_number(x):
    with pytest.raises(TypeError):
        exactify(x)


@pytest.mark.parametrize(
    "x", [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("inf")]
)
def test_exactify_refuses_nan_and_infinities(x):
    with pytest.raises(ValidationError, match="finite"):
        exactify(x)


@pytest.mark.parametrize("raw", ["abc", "0", "-1e-9", "inf", "nan"])
def test_a_tolerance_that_is_not_finite_and_positive_is_refused(raw, monkeypatch):
    monkeypatch.setenv("IPD_TOLERANCE", raw)
    with pytest.raises(ValidationError, match="must be a finite positive number"):
        check_slack()


# The formulas the column statistics, the kernel and the two verifiers used
# before the helpers and the shared joint masses.


def seed_column_stats(st_):
    prior = st_.prior
    stats = []
    for t in range(st_.num_signals):
        mass = sum(prior.p[s] * st_.widths[s][t] for s in range(prior.n))
        if mass == 0:
            stats.append((mass, None, None))
            continue
        yellow = sum(
            prior.p[s] * st_.widths[s][t] * st_.cells[s][t] for s in range(prior.n)
        )
        s_post = tuple(prior.p[s] * st_.widths[s][t] / mass for s in range(prior.n))
        stats.append((mass, yellow / mass, s_post))
    return tuple(stats)


def seed_kernel(st_):
    prior, k = st_.prior, st_.num_signals
    posts = {t: c[1] for t, c in enumerate(seed_column_stats(st_)) if c[1] is not None}
    top = max(posts, key=posts.__getitem__)
    bot = min(posts, key=posts.__getitem__)
    kernel = []
    for s in range(prior.n):
        qs = prior.q[s]
        yellow_row = tuple(st_.widths[s][t] * st_.cells[s][t] for t in range(k))
        white_row = tuple(st_.widths[s][t] * (1 - st_.cells[s][t]) for t in range(k))
        if qs > 0:
            row1 = tuple(x / qs for x in yellow_row)
        else:
            row1 = tuple(1 if t == top else 0 for t in range(k))
        if qs < 1:
            row0 = tuple(x / (1 - qs) for x in white_row)
        else:
            row0 = tuple(1 if t == bot else 0 for t in range(k))
        kernel.append((row0, row1))
    return Mechanism(prior=prior, signals=st_.signals, kernel=tuple(kernel)).kernel


def seed_check_ip(st_, bound):
    eps_f = log_of(bound)
    slack = check_slack()
    exact = is_exact(bound) and all(is_exact(x) for row in st_.widths for x in row)
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
                witness = (label, st_.prior.secrets[s_hi], st_.prior.secrets[zeros[0]])
            continue
        col_log = log_of(hi / lo)
        max_log_ratio = max(max_log_ratio, col_log)
        if exact:
            binding[label] = hi == bound * lo
            ok = hi <= bound * lo
        else:
            binding[label] = abs(col_log - eps_f) <= slack
            ok = col_log <= eps_f + slack
        if not ok and witness is None:
            witness = (label, st_.prior.secrets[s_hi], st_.prior.secrets[s_lo])
    return max_log_ratio, witness, binding


def seed_check_regions(st_, bound):
    eps_f = log_of(bound)
    slack = check_slack()
    prior, n = st_.prior, st_.prior.n
    post_of = {t: c[1] for t, c in enumerate(seed_column_stats(st_)) if c[1] is not None}
    kept = sorted(post_of, key=lambda t: (-float(post_of[t]), t))
    witnesses = dict.fromkeys(_FLAGS)
    zero_width, yellow_cells, white_cells, wildcard = [], set(), set(), set()
    for j, t in enumerate(kept):
        for i in range(n):
            if st_.widths[i][t] == 0:
                wildcard.add((i, j))
                zero_width.append((prior.secrets[i], st_.signals[t]))
                continue
            value = st_.cells[i][t]
            if value >= 1 - slack:
                yellow_cells.add((i, j))
            elif value <= slack:
                white_cells.add((i, j))
            elif witnesses["cells_binary"] is None:
                witnesses["cells_binary"] = (prior.secrets[i], st_.signals[t], float(value))
    interior = [j for j, t in enumerate(kept) if slack < float(post_of[t]) < 1 - slack]
    wide_cells = set()
    for j in interior:
        t = kept[j]
        widths = [(st_.widths[i][t], i) for i in range(n) if st_.widths[i][t] > 0]
        lo = min(x for x, _ in widths)
        hi = max(x for x, _ in widths)
        ratio_ok = abs(log_of(hi / lo) - eps_f) <= slack
        two_valued = all(min(abs(x - lo), abs(x - hi)) <= slack for x, _ in widths)
        wide_cells.update((i, j) for x, i in widths if abs(x - hi) <= slack)
        if witnesses["columns_binding"] is None and not (ratio_ok and two_valued):
            witnesses["columns_binding"] = (st_.signals[t], float(lo), float(hi))
    grid = [(i, j) for j in range(len(kept)) for i in range(n)]
    inner = [(i, j) for j in interior for i in range(n)]
    for flag, members, universe, lower_right in (
        ("a_upper_left", yellow_cells, grid, False),
        ("b_upper_left", wide_cells & yellow_cells, inner, False),
        ("c_lower_right", wide_cells & white_cells, inner, True),
    ):
        hit = _staircase_violation(members, wildcard, universe, lower_right)
        if hit:
            witnesses[flag] = tuple((prior.secrets[i], st_.signals[kept[j]]) for i, j in hit)
    return witnesses, tuple(zero_width)


def seed_expected_utility(st_, u):
    return sum(
        mass * u(post) for mass, post, _ in seed_column_stats(st_) if post is not None
    )


def seed_compress(st_):
    """compress with each merged yellow mass summed from plain width * cell products."""
    stats = seed_column_stats(st_)
    slack = check_slack()
    classes = []
    for t, col in enumerate(stats):
        if col[1] is None:
            continue
        for members in classes:
            first = stats[members[0]]
            if abs(col[1] - first[1]) <= slack and all(
                abs(x - y) <= slack for x, y in zip(col[2], first[2])
            ):
                members.append(t)
                break
        else:
            classes.append([t])
    if len(classes) == st_.num_signals:
        return st_
    widths, cells = [], []
    for w_row, c_row in zip(st_.widths, st_.cells):
        w_out, c_out = [], []
        for group in classes:
            if len(group) == 1:
                w_out.append(w_row[group[0]])
                c_out.append(c_row[group[0]])
                continue
            total = sum(w_row[i] for i in group)
            yellow = sum(w_row[i] * c_row[i] for i in group)
            w_out.append(total)
            c_out.append(yellow / total if total > 0 else 0)
        widths.append(tuple(w_out))
        cells.append(tuple(c_out))
    signals = tuple(st_.signals[group[0]] for group in classes)
    return InfoStructure(st_.prior, signals, tuple(widths), tuple(cells))


def typed(value):
    """value with the type of every scalar in it, for equality that sees types."""
    if isinstance(value, (tuple, list)):
        return tuple(typed(x) for x in value)
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    if value is None or isinstance(value, str):
        return value
    return (type(value), repr(value))  # repr tells -0.0 from 0.0


def _binary_corpus():
    """Seeded exact priors, their float twins and budgets in every regime."""
    rng = random.Random(26)
    corpus = []
    for _ in range(24):
        p0 = Fraction(rng.randint(1, 19), 20)
        q0, q1 = (Fraction(rng.randint(0, 20), 20) for _ in range(2))
        exact = [(p0, q0), (1 - p0, q1)]
        twin = [(float(p), float(q)) for p, q in exact]
        for w in (Fraction(1), Fraction(9, 8), Fraction(3, 2), Fraction(5, 2), Fraction(7)):
            corpus.append((exact, w))
            corpus.append((twin, float(w)))
    return corpus


def _general_corpus():
    rng = np.random.default_rng(26)
    corpus = []
    for n in (3, 4, 5):
        for _ in range(3):
            pairs = list(zip(rng.dirichlet(np.ones(n)).tolist(), rng.uniform(0, 1, n).tolist()))
            corpus.append((pairs, float(rng.uniform(1.2, 6.0))))
        masses = [Fraction(1, n)] * n
        corpus.append((list(zip(masses, (Fraction(k, n + 1) for k in range(n, 0, -1)))), Fraction(2)))
    return corpus


def _mechanism_corpus():
    """Structures of seeded random kernels, whose cells are not all 0 or 1."""
    rng = random.Random(26)
    corpus = []
    for n in (2, 3, 4):
        for exact in (True, False):
            for _ in range(4):
                k = rng.randint(1, 4)
                masses = [rng.randint(1, 9) for _ in range(n)]
                pairs = [
                    (Fraction(m, sum(masses)), Fraction(rng.randint(0, 10), 10))
                    for m in masses
                ]
                kernel = []
                for _ in range(n):
                    rows = []
                    for _ in range(2):
                        raw = [rng.choice((0, 1, 2, 3, 7)) for _ in range(k - 1)] + [1]
                        rows.append(tuple(Fraction(x, sum(raw)) for x in raw))
                    kernel.append(tuple(rows))
                if not exact:
                    pairs = [(float(p), float(q)) for p, q in pairs]
                    kernel = [[[float(x) for x in row] for row in rows] for rows in kernel]
                prior = load_prior(pairs)
                m = Mechanism(prior, tuple(f"t{j}" for j in range(k)), kernel)
                corpus.append((mechanism_to_structure(m), Fraction(3) if exact else 3.0))
    return corpus


class TestSeedFormulaParity:
    """Each layer that gained a fast path answers as the seed's formulas did."""

    UTILITIES = (
        UtilityFn("abs"),
        UtilityFn("quadratic"),
        UtilityFn("negentropy"),
        UtilityFn("rewards", ((3, 0, 1), (0, 2, 1))),
    )

    def _check(self, st_, bound):
        assert typed(column_stats(st_)) == typed(seed_column_stats(st_))
        assert typed(structure_to_mechanism(st_).kernel) == typed(seed_kernel(st_))
        ip = check_ip(st_, exp_eps=bound)
        assert typed((ip.max_log_ratio, ip.witness, ip.binding)) == typed(
            seed_check_ip(st_, bound)
        )
        if bound != 1:
            regions = check_regions(st_, exp_eps=bound)
            assert typed((regions.witnesses, regions.zero_width_cells)) == typed(
                seed_check_regions(st_, bound)
            )
        for u in self.UTILITIES:
            assert typed(expected_utility(st_, u)) == typed(seed_expected_utility(st_, u))

    def test_binary_points_in_every_regime(self):
        seen = set()
        for pairs, w in _binary_corpus():
            prior = load_prior(pairs)
            for solution in (solve_binary(prior, exp_eps=w), solve_perfect_privacy(prior)):
                self._check(solution.structure, w)
                seen.add((solution.regime.tag, type(w)))
        assert seen == {(tag, kind) for tag in RegimeTag for kind in (Fraction, float)}

    def test_structures_of_random_kernels(self):
        for st_, w in _mechanism_corpus():
            self._check(st_, w)

    def test_general_structures(self):
        for pairs, w in _general_corpus():
            solution = solve_general(load_prior(pairs), u=UtilityFn("quadratic"), exp_eps=w)
            self._check(solution.structure, w)


@st.composite
def _binary_points(draw):
    """A binary prior, exact or float, whose q is now and then 0 or 1, a budget
    of any of its three forms, and the weights of a split of one signal."""
    p0 = draw(st.fractions(Fraction(1, 20), Fraction(19, 20), max_denominator=20))
    conditionals = st.one_of(
        st.sampled_from((Fraction(0), Fraction(1))), st.fractions(0, 1, max_denominator=40)
    )
    q = sorted((draw(conditionals) for _ in range(2)), reverse=True)
    pairs = [(p0, q[0]), (1 - p0, q[1])]
    if draw(st.booleans()):
        pairs = [(float(p), float(c)) for p, c in pairs]
    budget = draw(
        st.one_of(
            st.builds(lambda e: {"eps": e}, st.floats(0, 30)),
            st.builds(lambda w: {"exp_eps": w}, st.fractions(1, 50, max_denominator=10)),
            st.builds(lambda w: {"exp_eps": w}, st.floats(1, 50)),
        )
    )
    weights = draw(st.sampled_from(((Fraction(1, 3), Fraction(2, 3)), (0.25, 0.75))))
    return pairs, budget, weights


@given(_binary_points())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_binary_structures_answer_as_the_plain_products(point):
    # the model selects widths by their 0/1 cells instead of multiplying;
    # a split makes compress merge columns, mixing exact and float widths
    pairs, budget, weights = point
    prior = load_prior(pairs)
    for solution in (solve_binary(prior, **budget), solve_perfect_privacy(prior)):
        st_ = solution.structure
        for case in (st_, split_signal(st_, st_.signals[0], weights)):
            assert typed(column_stats(case)) == typed(seed_column_stats(case))
            assert typed(structure_to_mechanism(case).kernel) == typed(seed_kernel(case))
            got, want = compress(case), seed_compress(case)
            assert typed((got.signals, got.widths, got.cells)) == typed(
                (want.signals, want.widths, want.cells)
            )
