"""Closed-form optimal disclosure for a binary secret.

The constructions live on four canonical signals. t1 is the all-yellow
column (posterior 1), t4 the all-white one (posterior 0). The middle signals
t2 and t3 are yellow for the high-q secret and white for the low-q secret;
t2 is the one that is wide on the high-q row (posterior above the prior
mean), t3 is wide on the low-q row (posterior below it). Which of the four
survive with positive mass depends on where the budget cuts the two width
ratios

    r1 = q_hi / q_lo        (all-yellow column)
    r2 = (1 - q_lo) / (1 - q_hi)   (all-white column)

giving the four regimes of classify_regime. All arithmetic stays in
Fractions when the prior and budget are rational, so the regime equalities
and row sums hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .analysis import UtilityFn, expected_utility
from .errors import NotBinarySecret, ValidationError
from .model import InfoStructure, Mechanism, Prior, load_prior, structure_to_mechanism
from .numeric import Scalar, check_slack, exactify, is_exact, ratio_bound


class RegimeTag(str, Enum):
    """Which canonical signals carry mass at the optimum."""

    FULL_DISCLOSURE = "full-disclosure"
    THREE_SIGNAL_T3 = "three-signal-t3"
    THREE_SIGNAL_T2 = "three-signal-t2"
    FOUR_SIGNAL = "four-signal"
    PERFECT_PRIVACY = "perfect-privacy"


@dataclass(frozen=True)
class Regime:
    """Regime tag plus the two width ratios that decide it.

    r1 or r2 is +inf when the prior is degenerate (q_lo = 0 or q_hi = 1);
    equal conditionals give ratio exactly 1.
    """

    tag: RegimeTag
    r1: Scalar
    r2: Scalar


@dataclass(frozen=True)
class BinarySolution:
    """A closed-form optimum together with its bookkeeping.

    structure has zero-mass columns dropped; widths_by_signal keeps all
    canonical columns (four for the budgeted solver, three for perfect
    privacy) as (high-q row, low-q row) pairs aligned with signals.

    mechanism is derived from structure on first read and cached, so
    IPD_TOLERANCE is read then, not at solve time.
    """

    structure: InfoStructure
    regime: Regime
    widths_by_signal: tuple[tuple[Scalar, Scalar], ...]
    signals: tuple[str, ...]

    @cached_property
    def mechanism(self) -> Mechanism:
        return structure_to_mechanism(self.structure)


def _require_binary(prior: Prior) -> None:
    if not prior.is_binary:
        raise NotBinarySecret(
            f"closed-form solver needs exactly 2 secrets, got {prior.n}"
        )


def _width_ratios(q0: Scalar, q1: Scalar) -> tuple[Scalar, Scalar]:
    if q0 == q1:
        return 1, 1
    r1 = float("inf") if q1 == 0 else q0 / q1
    r2 = float("inf") if q0 == 1 else (1 - q1) / (1 - q0)
    return r1, r2


def classify_regime(
    prior: Prior,
    eps: float | None = None,
    *,
    exp_eps: Scalar | None = None,
) -> Regime:
    """Place a binary prior in one of the four regimes at budget eps.

    Comparisons are cross-multiplied, so rational inputs classify exactly
    and boundary ties resolve toward the regime with fewer signals. A
    degenerate prior (q_lo = 0 or q_hi = 1) gives an infinite ratio, which
    exceeds any budget.

    Raises:
        NotBinarySecret: More than two secrets.
    """
    _require_binary(prior)
    w = ratio_bound(eps, exp_eps)
    q0, q1 = prior.q
    r1, r2 = _width_ratios(q0, q1)
    if q0 == q1:
        return Regime(RegimeTag.FULL_DISCLOSURE, r1, r2)
    r1_within = q0 <= w * q1
    r2_within = (1 - q1) <= w * (1 - q0)
    if r1_within and r2_within:
        tag = RegimeTag.FULL_DISCLOSURE
    # q1 (1 + w) >= 1 and q0 (1 + w) <= w, written so that a float 1 + w
    # that rounds to w (w > 2**53) cannot flip them
    elif not r2_within and (r1_within or w * q1 >= 1 - q1):
        tag = RegimeTag.THREE_SIGNAL_T3
    elif not r1_within and (r2_within or q0 <= w * (1 - q0)):
        tag = RegimeTag.THREE_SIGNAL_T2
    else:
        tag = RegimeTag.FOUR_SIGNAL
    return Regime(tag, r1, r2)


def pack_columns(
    prior: Prior,
    labels: tuple[str, ...],
    width_pairs: tuple[tuple[Scalar, Scalar], ...],
    cell_pairs: tuple[tuple[Scalar, Scalar], ...],
) -> InfoStructure:
    """The binary structure of the given (high-q row, low-q row) column pairs.

    Columns whose two widths are both zero are left out.
    """
    kept = [k for k, (hi, lo) in enumerate(width_pairs) if hi != 0 or lo != 0]
    return InfoStructure(
        prior=prior,
        signals=tuple(labels[k] for k in kept),
        widths=tuple(tuple(width_pairs[k][row] for k in kept) for row in (0, 1)),
        cells=tuple(tuple(cell_pairs[k][row] for k in kept) for row in (0, 1)),
    )


# One-slot memos of the two solvers: (prior, key, solution) of the last
# answer. A hit needs the very same Prior object, not an equal one, because
# Prior equality treats Fraction(1, 2) and 0.5 alike and an exact caller must
# never get a float answer. The key holds everything else a fresh call reads:
# the budget with its type (Fraction(2) and 2.0 give different widths) and
# the check slack, so a changed IPD_TOLERANCE raises as a fresh call would.
# One slot keeps at most one prior alive.
_last_perfect_privacy: tuple | None = None
_last_binary: tuple | None = None


def solve_perfect_privacy(prior: Prior) -> BinarySolution:
    """Best structure whose signal is independent of the secret.

    Three signals with widths (q_lo, q_hi - q_lo, 1 - q_hi), identical for
    both secrets; the middle signal's posterior equals the prior mass of the
    high-q secret. Degenerate priors just lose the empty columns.

    The answer does not depend on the budget, so a repeated call on the same
    Prior object (under the same check slack) returns the same solution
    object instead of solving again.
    """
    global _last_perfect_privacy
    _require_binary(prior)
    key = check_slack()
    last = _last_perfect_privacy
    if last is not None and last[0] is prior and last[1] == key:
        return last[2]
    q0, q1 = prior.q
    r1, r2 = _width_ratios(q0, q1)
    labels = ("t1", "t2", "t3")
    width_pairs = tuple((x, x) for x in (q1, q0 - q1, 1 - q0))
    solution = BinarySolution(
        structure=pack_columns(prior, labels, width_pairs, ((1, 1), (1, 0), (0, 0))),
        regime=Regime(RegimeTag.PERFECT_PRIVACY, r1, r2),
        widths_by_signal=width_pairs,
        signals=labels,
    )
    _last_perfect_privacy = (prior, key, solution)
    return solution


def solve_binary(
    prior: Prior, eps: float | None = None, *, exp_eps: Scalar | None = None
) -> BinarySolution:
    """Optimal eps-private structure and mechanism for a binary secret.

    Evaluates the closed form of the regime the prior falls in; the result
    simultaneously maximizes expected utility for every convex utility of
    the posterior. A zero budget routes to solve_perfect_privacy, whose
    construction does not need the middle-width algebra.

    Because one structure is best for every utility, callers that evaluate
    several utilities at one point ask for the same answer repeatedly: a
    repeated call on the same Prior object, with a budget of the same value
    and type (under the same check slack), returns the same solution object
    instead of solving again.

    Raises:
        NotBinarySecret: More than two secrets.
    """
    global _last_binary
    _require_binary(prior)
    w = ratio_bound(eps, exp_eps)
    if w == 1:
        return solve_perfect_privacy(prior)
    key = (type(w), w, check_slack())
    last = _last_binary
    if last is not None and last[0] is prior and last[1] == key:
        return last[2]
    regime = classify_regime(prior, exp_eps=w)
    q0, q1 = prior.q
    if regime.tag is RegimeTag.FULL_DISCLOSURE:
        l10, l21, l31, l41 = q0, 0, 0, 1 - q1
    elif regime.tag is RegimeTag.THREE_SIGNAL_T3:
        l10 = 1 - (1 - q1) / w
        l21 = 0
        l31 = 1 - q1 - w * (1 - q0)
        l41 = w * (1 - q0)
    elif regime.tag is RegimeTag.THREE_SIGNAL_T2:
        l10 = w * q1
        l21 = q0 / w - q1
        l31 = 0
        l41 = 1 - q0 / w
    else:
        l10 = w * q1
        l21 = 1 / (1 + w) - q1
        # w q0 - w**2 / (1 + w), written so that it does not cancel
        l31 = w * (1 / (1 + w) - (1 - q0))
        l41 = w * (1 - q0)
    width_pairs = (
        (l10, q1),
        (w * l21, l21),
        (l31 / w, l31),
        (1 - q0, l41),
    )
    labels = ("t1", "t2", "t3", "t4")
    cell_pairs = ((1, 1), (1, 0), (1, 0), (0, 0))
    solution = BinarySolution(
        structure=pack_columns(prior, labels, width_pairs, cell_pairs),
        regime=regime,
        widths_by_signal=width_pairs,
        signals=labels,
    )
    _last_binary = (prior, key, solution)
    return solution


@dataclass(frozen=True)
class GapInstance:
    """A prior and utility exhibiting a guaranteed privacy cost.

    scale is the height of the tent-shaped reward utility; the budgeted
    optimum earns exactly scale/2 and the perfectly private one exactly
    scale/(1 + e**eps), so the gap is guaranteed once scale is chosen large
    enough for the requested delta.
    """

    prior: Prior
    u: UtilityFn
    u_eps: Scalar
    u_0: Scalar
    scale: Scalar

    @property
    def gap(self) -> Scalar:
        return self.u_eps - self.u_0


def gap_instance(
    eps: float | None = None,
    delta: Scalar | None = None,
    *,
    exp_eps: Scalar | None = None,
) -> GapInstance:
    """Construct an instance where the budgeted optimum beats perfect
    privacy by at least delta.

    The prior puts the conditionals at the exact budget ratio, so the
    budgeted solver discloses fully while the private baseline earns only
    the tails of the tent utility; the achieved gap is 1.5 * delta.
    """
    w = ratio_bound(eps, exp_eps)
    if w == 1:
        raise ValidationError("the gap construction needs a positive budget")
    if delta is None or not delta > 0:
        raise ValidationError("delta must be positive")
    delta = exactify(delta)
    scale = 3 * delta * (1 + 2 / (w - 1))
    half_mass = exactify(1) / 2 if is_exact(w) and is_exact(delta) else 0.5
    prior = load_prior(
        [(half_mass, w / (1 + w)), (half_mass, 1 / (1 + w))]
    )
    peak = scale / 2
    u = UtilityFn("rewards", rewards=((peak, -peak), (-peak, peak)))
    best = solve_binary(prior, exp_eps=w)
    base = solve_perfect_privacy(prior)
    return GapInstance(
        prior=prior,
        u=u,
        u_eps=expected_utility(best.structure, u),
        u_0=expected_utility(base.structure, u),
        scale=scale,
    )
