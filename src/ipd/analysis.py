"""Verification and evaluation: privacy checks, shape validators, convex order.

check_ip decides inferential privacy from the width grid alone: a structure is
eps-private when, within every signal column, the widths of any two secrets
differ by a factor of at most e**eps. check_regions tests the geometric
fingerprints that optimal structures must carry (0/1 cell posteriors, binding
width ratios on interior columns, staircase-shaped regions). Both report and
never raise on a failing structure.

blackwell_dominates orders posterior summaries by informativeness via the
convex order. expected_utility and utility_gain evaluate structures for a
decision maker with a convex utility of the posterior.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from .errors import MeanMismatch, ValidationError, require
from .model import InfoStructure, PosteriorSummary, Prior, column_stats
from .numeric import (
    Scalar,
    check_slack,
    common_terms,
    exactify,
    far,
    is_exact,
    log_of,
    log_ratio,
    near,
    ratio_bound,
    typed_key,
)
from .record import Record

if TYPE_CHECKING:  # pragma: no cover - type-only import to avoid a cycle
    from .binary import BinarySolution

BUILTIN_FAMILIES = ("abs", "quadratic", "negentropy")


class UtilityFn(Record):
    """Convex utility of the posterior probability q = P(Y=1 | T).

    Families:
        abs:        |2q - 1|
        quadratic:  (2q - 1)**2
        negentropy: q*ln(q) + (1-q)*ln(1-q) + 1, with 0*ln(0) = 0
        rewards:    max over actions a of q*r[1][a] + (1-q)*r[0][a], for a
                    reward matrix r[y][a]; piecewise linear and convex.

    Every family is convex by construction (a reward utility is a maximum
    of affine functions of q), so construction checks only the arguments.
    Calls accept scalars (Fractions stay exact except for negentropy, which
    is inherently transcendental) and numpy arrays. numpy is imported on the
    first array call, so scalar-only callers never load it; numpy scalars and
    0-d arrays take the scalar path.
    """

    family: str
    rewards: tuple[tuple[Scalar, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.family in BUILTIN_FAMILIES:
            if self.rewards is not None:
                raise ValidationError(
                    f"family {self.family!r} does not take a reward matrix"
                )
        elif self.family == "rewards":
            if self.rewards is None:
                raise ValidationError("family 'rewards' needs a reward matrix")
            matrix = tuple(tuple(exactify(x) for x in row) for row in self.rewards)
            if len(matrix) != 2 or not matrix[0] or len(matrix[0]) != len(matrix[1]):
                raise ValidationError(
                    "reward matrix must be rectangular with rows for y=0 and y=1"
                )
            object.__setattr__(self, "rewards", matrix)
        else:
            raise ValidationError(f"unknown utility family {self.family!r}")

    def label(self) -> str:
        return self.family

    @cached_property
    def key(self) -> tuple:
        """The family and the reward matrix with the type of each reward.

        Fraction and float rewards that compare equal give results of
        different types, so their keys differ.
        """
        matrix = None if self.rewards is None else tuple(map(typed_key, self.rewards))
        return (self.family, matrix)

    def __call__(self, q):
        if getattr(q, "ndim", 0):  # cheaper than isinstance, and needs no numpy
            return self._call_array(q)
        if self.family == "abs":
            return abs(2 * q - 1)
        if self.family == "quadratic":
            x = 2 * q - 1
            return x * x
        if self.family == "negentropy":
            x = float(q)
            left = x * math.log(x) if x > 0.0 else 0.0
            right = (1.0 - x) * math.log(1.0 - x) if x < 1.0 else 0.0
            return left + right + 1.0
        return max(
            q * r1 + (1 - q) * r0 for r0, r1 in zip(self.rewards[0], self.rewards[1])
        )

    def ratio_at(self, q: Scalar) -> tuple[int, int] | None:
        """self(q) as ints (numerator, denominator > 0) for an exact abs or quadratic q.

        For a Fraction q = y/t, abs is |2y - t|/t and quadratic is
        (2y - t)**2/t**2. Any other q or family gives None.
        """
        if type(q) is Fraction and self.family in ("abs", "quadratic"):
            y, t = q.as_integer_ratio()
            x = 2 * y - t
            return (abs(x), t) if self.family == "abs" else (x * x, t * t)
        return None

    def float_at(self, q: Scalar) -> float:
        """float(self(q)), with no Fraction arithmetic for an exact abs or quadratic q.

        There self(q) is one int / int (ratio_at), which Python rounds
        correctly, as it does the one division that turns an exact result
        into a float.
        """
        ratio = self.ratio_at(q)
        if ratio is not None:
            return ratio[0] / ratio[1]
        return float(self(q))

    def _call_array(self, q):
        np = require("numpy")

        if self.family == "abs":
            return np.abs(2.0 * q - 1.0)
        if self.family == "quadratic":
            return (2.0 * q - 1.0) ** 2
        if self.family == "negentropy":
            x = np.clip(q, 0.0, 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                left = np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)
                right = np.where(
                    x < 1.0, (1.0 - x) * np.log(np.where(x < 1.0, 1.0 - x, 1.0)), 0.0
                )
            return left + right + 1.0
        r0 = np.asarray([float(x) for x in self.rewards[0]])
        r1 = np.asarray([float(x) for x in self.rewards[1]])
        stacked = q[..., None] * r1 + (1.0 - q[..., None]) * r0
        return np.max(stacked, axis=-1)


def parse_utility(spec: str, rewards_loader=None) -> UtilityFn:
    """Parse a CLI utility spec: a family name or "rewards:<path to JSON>".

    The loader argument maps a path to a reward matrix; the CLI passes a JSON
    file reader, tests can pass a stub.
    """
    if spec in BUILTIN_FAMILIES:
        return UtilityFn(spec)
    if spec.startswith("rewards:"):
        path = spec[len("rewards:"):]
        if not path:
            raise ValidationError("rewards spec needs a path: rewards:<file>")
        if rewards_loader is None:
            raise ValidationError("no loader available for a rewards file")
        matrix = rewards_loader(path)
        return UtilityFn("rewards", rewards=tuple(tuple(row) for row in matrix))
    raise ValidationError(
        f"unknown utility spec {spec!r}; expected one of "
        f"{', '.join(BUILTIN_FAMILIES)} or rewards:<path>"
    )


class IpReport(Record):
    """Outcome of an inferential-privacy check.

    Attributes:
        max_log_ratio: Largest ln(width ratio) over columns; +inf when a zero
            width faces a positive one.
        witness: (signal, secret_wide, secret_narrow) for the first violating
            column, None when satisfied.
        binding: Per positive-mass signal, whether its max/min width ratio
            equals e**eps (within the check slack; exactly in rational mode).

    satisfied (every column's width ratio within e**eps) is read from the
    witness: it holds exactly when there is none.
    """

    max_log_ratio: float
    witness: tuple[str, str, str] | None
    binding: Mapping[str, bool]

    @property
    def satisfied(self) -> bool:
        return self.witness is None


def check_ip(
    st: InfoStructure, eps: float | None = None, *, exp_eps: Scalar | None = None
) -> IpReport:
    """Check inferential privacy of a structure at budget eps.

    Ratios are compared in log space with the check slack in float mode; when
    both the widths and the budget are exact rationals the comparison is
    exact, made on integers: each column's widths over their common
    denominator, cross-multiplied with the budget's numerator and
    denominator. Columns with no mass at all are skipped; a zero width
    against a positive width in the same column is an infinite ratio and
    always fails.
    """
    bound = ratio_bound(eps, exp_eps)
    eps_f = log_of(bound)
    slack = check_slack()
    exact = is_exact(bound) and all(
        is_exact(x) for row in st.widths for x in row
    )
    if exact:
        # each column's widths as integers over their common denominator,
        # which keeps their order, ties and ratios; the bound a/d then
        # holds where hi * d <= a * lo
        a, d = bound.as_integer_ratio()
        columns = [
            common_terms(x.as_integer_ratio() for x in column)[0]
            for column in zip(*st.widths)
        ]
    else:
        columns = list(zip(*st.widths))
    secrets = st.prior.secrets
    max_log_ratio = 0.0
    witness: tuple[str, str, str] | None = None
    binding: dict[str, bool] = {}
    for label, widths in zip(st.signals, columns):
        column = list(zip(widths, range(st.prior.n)))
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
        if exact:
            col_log = log_ratio(hi, lo)
            binding[label] = hi * d == a * lo
            ok = hi * d <= a * lo
        else:
            col_log = log_of(hi / lo)
            binding[label] = near(col_log, eps_f, slack)
            ok = col_log <= eps_f + slack
        max_log_ratio = max(max_log_ratio, col_log)
        if not ok and witness is None:
            witness = (label, secrets[s_hi], secrets[s_lo])
    return IpReport(max_log_ratio=max_log_ratio, witness=witness, binding=binding)


_FLAGS = (
    "cells_binary", "columns_binding", "a_upper_left", "b_upper_left", "c_lower_right"
)


def _no_witness(flag: str) -> property:
    return property(lambda report: report.witnesses[flag] is None)


class RegionReport(Record):
    """Geometric fingerprint of optimality for a structure.

    After sorting secrets by decreasing q_s (the canonical order) and signals
    by decreasing posterior q_t, an optimal structure shows: 0/1 cell
    posteriors; on every interior-posterior column, exactly two width values
    with ratio e**eps; the yellow region forming an upper-left staircase; and
    the wide-yellow / wide-white cells forming upper-left / lower-right
    staircases within the interior columns.

    witnesses maps each of the five flags, in the order below, to the first
    violation found or None; each flag is read from it and holds exactly
    when there is none. A cells_binary witness is (secret, signal, cell
    posterior), a columns_binding one (signal, narrowest width, widest
    width), and a staircase one ((secret, signal) of a member, (secret,
    signal) of a cell that closure forces in but is not).

    Zero-width cells prove nothing either way; they are excluded from every
    region and listed in zero_width_cells as a warning.
    """

    witnesses: Mapping[str, tuple | None]
    zero_width_cells: tuple[tuple[str, str], ...]

    cells_binary = _no_witness("cells_binary")
    columns_binding = _no_witness("columns_binding")
    a_upper_left = _no_witness("a_upper_left")
    b_upper_left = _no_witness("b_upper_left")
    c_lower_right = _no_witness("c_lower_right")

    @property
    def all_flags(self) -> bool:
        return all(value is None for value in self.witnesses.values())


def _staircase_violation(members, wildcard, universe, lower_right=False):
    """First (member, offender) pair breaking staircase closure, if any.

    members must be closed under moving up-left (or down-right when
    lower_right is set) within the universe of (row, col) positions,
    ignoring wildcard positions.
    """
    member_set = set(members)
    for (i, j) in sorted(member_set):
        for (i2, j2) in universe:
            if (i2, j2) in member_set or (i2, j2) in wildcard:
                continue
            inside = (i2 >= i and j2 >= j) if lower_right else (i2 <= i and j2 <= j)
            if inside:
                return ((i, j), (i2, j2))
    return None


def check_regions(
    st: InfoStructure, eps: float | None = None, *, exp_eps: Scalar | None = None
) -> RegionReport:
    """Validate the optimality fingerprints of a structure at budget eps.

    All five flags are informational: the function reports and never raises.
    Zero-mass signals are ignored entirely; zero-width cells inside kept
    columns are treated as wildcards and reported as warnings.
    """
    bound = ratio_bound(eps, exp_eps)
    eps_f = log_of(bound)
    if eps_f <= 0:
        raise ValidationError("region checks need a positive budget")
    slack = check_slack()
    prior = st.prior
    n = prior.n

    post_of = {
        t: post for t, (_, post, _) in enumerate(column_stats(st)) if post is not None
    }
    kept = sorted(post_of, key=lambda t: (-float(post_of[t]), t))

    witnesses: dict[str, tuple | None] = dict.fromkeys(_FLAGS)
    zero_width: list[tuple[str, str]] = []
    yellow_cells: set[tuple[int, int]] = set()
    white_cells: set[tuple[int, int]] = set()
    wildcard: set[tuple[int, int]] = set()

    for j, t in enumerate(kept):
        for i in range(n):
            if st.widths[i][t] == 0:
                wildcard.add((i, j))
                zero_width.append((prior.secrets[i], st.signals[t]))
                continue
            value = st.cells[i][t]
            # an exact 0 first: a white Fraction cell against the float
            # 1 - slack costs as much as a Fraction conversion
            if value == 0:
                white_cells.add((i, j))
            elif value == 1 or value >= 1 - slack:
                yellow_cells.add((i, j))
            elif value <= slack:
                white_cells.add((i, j))
            elif witnesses["cells_binary"] is None:
                witnesses["cells_binary"] = (
                    prior.secrets[i], st.signals[t], float(value)
                )

    interior = [j for j, t in enumerate(kept) if slack < float(post_of[t]) < 1 - slack]

    wide_cells: set[tuple[int, int]] = set()
    for j in interior:
        t = kept[j]
        widths = [(st.widths[i][t], i) for i in range(n) if st.widths[i][t] > 0]
        lo = min(x for x, _ in widths)
        hi = max(x for x, _ in widths)
        ratio_ok = near(log_of(hi / lo), eps_f, slack)
        # near(x, lo) or near(x, hi) is min(abs(x - lo), abs(x - hi)) <= slack
        # for every width a structure can hold, none of them NaN
        two_valued = all(near(x, lo, slack) or near(x, hi, slack) for x, _ in widths)
        wide_cells.update((i, j) for x, i in widths if near(x, hi, slack))
        if witnesses["columns_binding"] is None and not (ratio_ok and two_valued):
            witnesses["columns_binding"] = (st.signals[t], float(lo), float(hi))

    # B and C live inside the interior columns, so their universe holds only
    # those; column indices keep their order, which is all closure looks at.
    grid = [(i, j) for j in range(len(kept)) for i in range(n)]
    inner = [(i, j) for j in interior for i in range(n)]
    for flag, members, universe, lower_right in (
        ("a_upper_left", yellow_cells, grid, False),
        ("b_upper_left", wide_cells & yellow_cells, inner, False),
        ("c_lower_right", wide_cells & white_cells, inner, True),
    ):
        hit = _staircase_violation(members, wildcard, universe, lower_right)
        if hit:
            witnesses[flag] = tuple(
                (prior.secrets[i], st.signals[kept[j]]) for i, j in hit
            )
    return RegionReport(witnesses=witnesses, zero_width_cells=tuple(zero_width))


class BlackwellResult(Record):
    """Verdict of a convex-order comparison between two posterior summaries."""

    dominates: bool
    equivalent: bool


def _hockey_stick(summary: PosteriorSummary, x: Scalar) -> Scalar:
    return sum(p * max(q - x, 0) for p, q in zip(summary.p, summary.q))


def blackwell_dominates(a: PosteriorSummary, b: PosteriorSummary) -> BlackwellResult:
    """Test whether summary a is more informative than b in the convex order.

    a dominates b when E[u(Q_a)] >= E[u(Q_b)] for every convex u, which for
    finite supports reduces to comparing sum_t p_t*max(q_t - x, 0) at every
    support point x of either summary. Equivalence is dominance both ways.

    Raises:
        MeanMismatch: The summaries disagree on P(Y=1) beyond the check slack.
    """
    slack = check_slack()
    if far(a.mean, b.mean, slack):
        raise MeanMismatch(
            f"summaries have different means: {float(a.mean)!r} vs {float(b.mean)!r}"
        )
    xs = sorted(set(a.q) | set(b.q))
    forward = all(_hockey_stick(a, x) >= _hockey_stick(b, x) - slack for x in xs)
    backward = all(_hockey_stick(b, x) >= _hockey_stick(a, x) - slack for x in xs)
    return BlackwellResult(dominates=forward, equivalent=forward and backward)


def expected_utility(st: InfoStructure, u: UtilityFn) -> Scalar:
    """E[u(q_T)] over positive-mass signals; exact for rational structures
    except with the negentropy family.

    On an exact structure, abs and quadratic score each term mass * u(post)
    as a ratio of integers (UtilityFn.ratio_at) and add the terms over
    their common denominator, normalizing the sum once.

    The sum is computed once per structure and utility key (UtilityFn.key):
    a later call on the same structure with a utility of the same family
    and typed rewards returns the same value without summing again.
    """
    sums, key = st._utility_sums, u.key
    value = sums.get(key)
    if value is None:
        stats = column_stats(st)
        if st._exact and u.family in ("abs", "quadratic"):
            # each term mass * u(post) as ints, summed over their common
            # denominator and normalized once
            ratios = []
            for mass, post, _ in stats:
                if post is not None:
                    (m, d), (y, t) = mass.as_integer_ratio(), u.ratio_at(post)
                    ratios.append((m * y, d * t))
            terms, common = common_terms(ratios)
            value = Fraction(sum(terms), common)
        else:
            value = sum(mass * u(post) for mass, post, _ in stats if post is not None)
        sums[key] = value
    return value


class GainReport(Record):
    """Utility of the eps-optimal structure relative to the private baseline.

    gain is u_eps / u_0; when the baseline utility is zero the ratio is
    reported as +inf (or 1 when the optimum is also zero) and zero_baseline
    is set instead of raising.
    """

    u_eps: Scalar
    u_0: Scalar
    gain: Scalar
    zero_baseline: bool
    solution_eps: "BinarySolution"
    solution_0: "BinarySolution"


def utility_gain(
    prior: Prior,
    eps: float | None = None,
    u: UtilityFn | None = None,
    *,
    exp_eps: Scalar | None = None,
) -> GainReport:
    """Compare the eps-optimal binary solution against perfect privacy.

    Both utilities come from the closed-form solvers; at eps=0 the two
    coincide and the gain is 1. The solvers answer a repeated call on a
    prior of equal values, types, labels and order and the same budget from
    memory, and expected_utility sums once per structure and utility, so
    evaluating several utilities at one point solves it once, and a sweep
    over budgets, even one that loads its prior afresh at each point,
    builds the baseline and sums each utility's u_0 once.
    """
    if u is None:
        raise TypeError("utility_gain needs a utility function")
    # Imported here: the binary solver depends on this module for its gap
    # construction, so a top-level import would be circular.
    from .binary import solve_binary, solve_perfect_privacy

    bound = ratio_bound(eps, exp_eps)
    solution_0 = solve_perfect_privacy(prior)
    solution_eps = solve_binary(prior, exp_eps=bound)
    u_0 = expected_utility(solution_0.structure, u)
    u_eps = expected_utility(solution_eps.structure, u)
    if u_0 == 0:
        gain = float("inf") if u_eps > 0 else 1
        zero_baseline = True
    else:
        gain = u_eps / u_0
        zero_baseline = False
    return GainReport(
        u_eps=u_eps,
        u_0=u_0,
        gain=gain,
        zero_baseline=zero_baseline,
        solution_eps=solution_eps,
        solution_0=solution_0,
    )
