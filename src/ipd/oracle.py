"""Brute-force cross-checks for the solvers.

Nothing here is used by the solvers themselves. binary_grid_oracle sweeps
the two free widths of the binary optimum over a lattice and recovers the
middle widths from the row-sum algebra; random_structure_oracle throws
random private structures at a solver; pattern_lp_oracle solves one LP over
every (yellow set, width pattern) column type, which bounds every private
structure without the structure theorem that the cut bank of solve_general
rests on. Its independence is that bank: it is built and solved through
ipd.general's one LP layout and backend (_width_lp, solve_lp), as the cut
bank is. Each gives an independent path to the same answers the closed
forms and the LP produce, which is the whole point: the tests assert the
solvers are never beaten.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

from .analysis import UtilityFn, blackwell_dominates, expected_utility
from .binary import pack_columns, solve_binary
from .errors import NotBinarySecret, UnsupportedSize, ValidationError, require
from .general import (
    _clamped_budget,
    _kept_columns,
    _rescaled_structure,
    _width_lp,
    solve_general,
    solve_lp,
)
from .model import InfoStructure, Prior, posterior_summary
from .numeric import Scalar, check_slack, log_of, ratio_bound
from .record import Record

if TYPE_CHECKING:  # numpy loads only inside the oracles that use it
    import numpy as np

# Size caps of one oracle call. The grid scan keeps a few lists of grid + 1
# floats and scores at most two points per lattice row; the random search
# keeps its largest array, (trials x signals x (signals + the solver's
# signals)) dominance floats, under about 0.5 GB; the pattern LP has
# 2**n (2**n - 1) columns, 65 280 at n=8, held as Python lists.
MAX_GRID = 2_000
MAX_TRIALS = 500_000
MAX_SIGNALS = 32
MAX_PATTERN_SECRETS = 8


class OracleReport(Record):
    """Outcome of one brute-force challenge against a solver.

    trials counts the candidates actually scored (projection can discard
    some of the requested ones); for the pattern LP it is the number of
    column types, one LP variable each. best_structure is None when nothing
    survived. solver_dominates_all is the convex-order verdict against
    every scored candidate, vacuously true for an empty field.
    """

    best_utility: float
    best_structure: InfoStructure | None
    trials: int
    solver_utility: float
    solver_dominates_all: bool


def binary_grid_oracle(
    prior: Prior,
    eps: float | None = None,
    u: UtilityFn | None = None,
    grid: int = 100,
    *,
    exp_eps: Scalar | None = None,
) -> OracleReport:
    """Sweep the binary feasible region on a (grid+1) x (grid+1) lattice.

    The two anchor widths (l10, the all-yellow width of the high-q secret,
    and l41, the all-white width of the low-q one) range over their budget
    boxes; the two middle widths l21 and l31 follow from the row sums and
    must come out nonnegative (to -1e-15). Every feasible lattice point is
    a trial, scored and convex-order-compared against solve_binary. grid=1
    visits just the four box corners.

    The scan finds the same feasible points without visiting each one.
    Every float operation in the formulas of l21 and l31 is monotone under
    round-to-nearest, so along a lattice row (fixed l10) l21 never falls and
    l31 never rises as l41 rises: a row's feasible points form one
    contiguous run. Neither end of the run moves left as l10 rises (l21
    only falls and l31 only rises with l10), so two pointers find every
    row's run with O(grid) evaluations in all. The utility and each
    hockey-stick term of the convex order are affine in l41 along a row
    (convex, once l21 and l31 are clipped at zero), so only the two ends of
    each run are scored.
    """
    if u is None:
        raise TypeError("binary_grid_oracle needs a utility function")
    if not prior.is_binary:
        raise NotBinarySecret("the grid oracle covers only binary secrets")
    if not 1 <= grid <= MAX_GRID:
        raise ValidationError(f"grid must be in [1, {MAX_GRID}], got {grid}")
    w = float(ratio_bound(eps, exp_eps))
    if w <= 1:
        raise ValidationError("the grid oracle needs a positive budget")
    slack = check_slack()
    p0, p1 = (float(x) for x in prior.p)
    q0, q1 = (float(x) for x in prior.q)

    solution = solve_binary(prior, eps, exp_eps=exp_eps)
    solver_utility = float(expected_utility(solution.structure, u))
    summary = posterior_summary(solution.structure)

    l10s = _linspace(q1 / w, min(w * q1, q0), grid)
    l41s = _linspace((1 - q0) / w, min(w * (1 - q0), 1 - q1), grid)
    # l21 = (-w*l10 + l41 + w*q0 + q1 - 1) / (w*w - 1) and
    # l31 = w*(l10 - w*l41 - q0 - w*q1 + w) / (w*w - 1), evaluated left to
    # right. Where w*w, or w times the bracket of l31 (at most w + 1), would
    # overflow a float, both are divided through by w: s = 1 instead of w.
    s = w if w * (w + 1.0) < math.inf else 1.0
    r = s / w
    denom = s * w - r
    sq0, rq1, wq1 = s * q0, r * q1, w * q1
    rl41s = [r * x for x in l41s]
    wl41s = [w * x for x in l41s]

    def middle_widths(l10: float, j: int) -> tuple[float, float]:
        return (
            (-s * l10 + rl41s[j] + sq0 + rq1 - r) / denom,
            s * (l10 - wl41s[j] - q0 - wq1 + w) / denom,
        )

    qt2 = w * p0 / (w * p0 + p1)
    qt3 = p0 / (p0 + w * p1)
    u1, u2, u3, u0 = (float(u(x)) for x in (1.0, qt2, qt3, 0.0))
    per_l21, per_l31 = p0 * w + p1, p0 / w + p1
    mass1_base, mass4_base = p1 * q1, p0 * (1 - q0)
    # Per x of the convex order: the weights of the three yellow masses in
    # the lattice point's hockey-stick sum, and the solver's sum plus slack.
    solver_points = [(float(p), float(qv)) for p, qv in zip(summary.p, summary.q)]
    sticks = [
        (
            max(1.0 - x, 0.0),
            max(qt2 - x, 0.0),
            max(qt3 - x, 0.0),
            sum(p * max(qv - x, 0.0) for p, qv in solver_points) + slack,
        )
        for x in (0.0, qt3, qt2, 1.0)
    ]

    trials = 0
    dominates = True
    best_utility = -math.inf
    best_point = None
    lo, hi = 0, -1  # the current row's run of feasible columns is lo..hi
    for l10 in l10s:
        while lo <= grid and not middle_widths(l10, lo)[0] >= -1e-15:
            lo += 1
        while hi < grid and middle_widths(l10, hi + 1)[1] >= -1e-15:
            hi += 1
        if lo > hi:
            continue
        trials += hi - lo + 1
        mass1 = p0 * l10 + mass1_base
        for j in (lo, hi) if lo < hi else (lo,):
            l21, l31 = middle_widths(l10, j)
            l21, l31 = max(0.0, l21), max(0.0, l31)
            mass2 = per_l21 * l21
            mass3 = per_l31 * l31
            mass4 = mass4_base + p1 * l41s[j]
            utility = u1 * mass1 + u2 * mass2 + u3 * mass3 + u0 * mass4
            if utility > best_utility:
                best_utility = utility
                best_point = (l10, l21, l31, l41s[j])
            if dominates:
                for k1, k2, k3, limit in sticks:
                    if mass1 * k1 + mass2 * k2 + mass3 * k3 > limit:
                        dominates = False
                        break

    if best_point is None:
        return OracleReport(float("-inf"), None, 0, solver_utility, True)
    best = _binary_point_structure(prior, w, *best_point)
    return OracleReport(
        best_utility=float(expected_utility(best, u)),
        best_structure=best,
        trials=trials,
        solver_utility=solver_utility,
        solver_dominates_all=dominates,
    )


def _linspace(start: float, stop: float, grid: int) -> list[float]:
    """The grid + 1 floats of numpy.linspace(start, stop, grid + 1), bit for bit."""
    delta = stop - start
    step = delta / grid
    if step == 0.0:  # a subnormal delta: numpy scales each index by it instead
        points = [i / grid * delta + start for i in range(grid)]
    else:
        points = [i * step + start for i in range(grid)]
    points.append(stop)
    return points


def _binary_point_structure(
    prior: Prior, w: float, l10: float, l21: float, l31: float, l41: float
) -> InfoStructure:
    q0, q1 = (float(x) for x in prior.q)
    pairs = ((l10, q1), (w * l21, l21), (l31 / w, l31), (1 - q0, l41))
    cells = ((1, 1), (1, 0), (1, 0), (0, 0))
    return pack_columns(prior, ("t1", "t2", "t3", "t4"), pairs, cells)


def _solver_structure(prior: Prior, u: UtilityFn, w: Scalar) -> InfoStructure:
    """What an oracle challenges: the closed form for two secrets, else the LP."""
    if prior.n == 2:
        return solve_binary(prior, exp_eps=w).structure
    return solve_general(prior, u=u, exp_eps=w).structure


def random_structure_oracle(
    prior: Prior,
    eps: float | None = None,
    u: UtilityFn | None = None,
    trials: int = 1000,
    max_signals: int = 6,
    seed: int | None = None,
    *,
    exp_eps: Scalar | None = None,
) -> OracleReport:
    """Challenge the solver with random private structures.

    Candidates get random binary cell colorings (every row keeps at least
    one cell of each color), random widths that meet each secret's yellow
    and white mass exactly, and are then squeezed into the budget by
    alternating a log-space clip of each column toward its mean with a
    per-row rescale that restores the masses. Candidates whose final column
    spread still exceeds the budget are dropped, so the reported trial count
    can be below the requested one. Priors with a conditional of exactly 0
    or 1 starve the sampler: the forced cell of the impossible color has
    width zero, which no amount of squeezing can bring inside the budget.

    The solver side is solve_binary for two secrets and solve_general
    otherwise. A seed is required; there is no implicit randomness. The
    draws need numpy, and MissingDependency is raised without it.
    """
    if u is None:
        raise TypeError("random_structure_oracle needs a utility function")
    if seed is None:
        raise ValidationError("a seed is required; oracle runs must be replayable")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    if not 2 <= max_signals <= MAX_SIGNALS:
        raise ValidationError(
            f"max_signals must be in [2, {MAX_SIGNALS}], got {max_signals}"
        )
    if not 0 <= trials <= MAX_TRIALS:
        raise ValidationError(f"trials must be in [0, {MAX_TRIALS}], got {trials}")
    w = ratio_bound(eps, exp_eps)
    eps_f = log_of(w)
    slack = check_slack()
    n = prior.n
    np = require("numpy")

    p = np.array([float(x) for x in prior.p])
    q = np.array([float(x) for x in prior.q])

    solver_structure = _solver_structure(prior, u, w)
    solver_utility = float(expected_utility(solver_structure, u))
    summary = posterior_summary(solver_structure)
    sp = np.array([float(x) for x in summary.p])
    sq = np.array([float(x) for x in summary.q])

    rng = np.random.default_rng(seed)
    best_utility = float("-inf")
    best_payload: tuple[np.ndarray, np.ndarray] | None = None
    scored = 0
    dominates_all = True
    if trials > 0:
        ks = rng.integers(2, max_signals, size=trials, endpoint=True)
        for k in np.unique(ks):
            count = int((ks == k).sum())
            widths, yellow = _random_batch(rng, q, count, n, int(k), eps_f)
            logw = np.log(np.maximum(widths, 1e-300))
            spread = logw.max(axis=1) - logw.min(axis=1)
            keep = (spread <= eps_f + slack).all(axis=1)
            if not keep.any():
                continue
            widths = widths[keep]
            yellow = yellow[keep]
            scored += int(keep.sum())
            masses = np.einsum("j,cjk->ck", p, widths)
            ymasses = np.einsum("j,cjk->ck", p, widths * yellow)
            posts = np.where(masses > 0, ymasses / np.maximum(masses, 1e-300), 0.0)
            utils = (masses * u(posts)).sum(axis=1)

            xs = np.concatenate(
                [np.broadcast_to(sq, (len(utils), len(sq))), posts], axis=1
            )
            h_solver = (
                sp[None, None, :]
                * np.clip(sq[None, None, :] - xs[:, :, None], 0.0, None)
            ).sum(axis=2)
            h_cand = (
                masses[:, None, :]
                * np.clip(posts[:, None, :] - xs[:, :, None], 0.0, None)
            ).sum(axis=2)
            if not np.all(h_solver >= h_cand - slack):
                dominates_all = False

            idx = int(np.argmax(utils))
            if float(utils[idx]) > best_utility:
                best_utility = float(utils[idx])
                best_payload = (widths[idx].copy(), yellow[idx].copy())

    if best_payload is None:
        return OracleReport(float("-inf"), None, 0, solver_utility, True)
    widths, yellow = best_payload
    k = widths.shape[1]
    best = InfoStructure(
        prior=prior,
        signals=tuple(f"t{j + 1}" for j in range(k)),
        widths=tuple(tuple(float(x) for x in row) for row in widths),
        cells=tuple(tuple(int(c) for c in row) for row in yellow),
    )
    return OracleReport(
        best_utility=float(expected_utility(best, u)),
        best_structure=best,
        trials=scored,
        solver_utility=solver_utility,
        solver_dominates_all=dominates_all,
    )


def _random_batch(
    rng: np.random.Generator,
    q: np.ndarray,
    count: int,
    n: int,
    k: int,
    eps_f: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Random (widths, yellow) batches of shape (count, n, k)."""
    np = require("numpy")

    yellow = rng.integers(0, 2, size=(count, n, k)).astype(bool)
    fixes = rng.integers(0, k, size=(count, n))
    ci, ri = np.nonzero(~yellow.any(axis=2))
    yellow[ci, ri, fixes[ci, ri]] = True
    fixes = rng.integers(0, k, size=(count, n))
    ci, ri = np.nonzero(yellow.all(axis=2))
    yellow[ci, ri, fixes[ci, ri]] = False

    raw = rng.gamma(1.0, 1.0, size=(count, n, k)) + 1e-12
    qs = q[None, :, None]
    widths = raw
    for _ in range(50):
        ysum = (widths * yellow).sum(axis=2, keepdims=True)
        wsum = (widths * ~yellow).sum(axis=2, keepdims=True)
        widths = np.where(
            yellow,
            widths / np.maximum(ysum, 1e-300) * qs,
            widths / np.maximum(wsum, 1e-300) * (1.0 - qs),
        )
        logw = np.log(np.maximum(widths, 1e-300))
        center = logw.mean(axis=1, keepdims=True)
        logw = np.clip(logw, center - eps_f / 2, center + eps_f / 2)
        widths = np.exp(logw)
    ysum = (widths * yellow).sum(axis=2, keepdims=True)
    wsum = (widths * ~yellow).sum(axis=2, keepdims=True)
    widths = np.where(
        yellow,
        widths / np.maximum(ysum, 1e-300) * qs,
        widths / np.maximum(wsum, 1e-300) * (1.0 - qs),
    )
    return widths, yellow


def pattern_lp_oracle(
    prior: Prior,
    eps: float | None = None,
    u: UtilityFn | None = None,
    *,
    exp_eps: Scalar | None = None,
) -> OracleReport:
    """The best private structure over every column type, by one LP.

    Each column of a private structure has its widths in [L, wL] for some
    L > 0 (w = e**eps). Its cell colours are a convex combination of 0/1
    colourings, so it splits into scaled copies of itself, each coloured
    0/1; the widths of a 0/1 column are a convex combination of the
    vertices of its width box, so it splits again into columns of the same
    colours with widths in {L, wL}. Both splits are refinements, which no
    convex utility values less (Blackwell 1953), and every part keeps its
    widths within a factor w, so privacy holds. The optimum over all
    private structures is therefore an LP with one variable, the scale L,
    per type: a yellow set and one of the 2**n - 1 {1, w} width patterns
    that differ in more than scale, 2**n (2**n - 1) types in all. A type
    fixes its posterior, so the objective, mass times u(posterior), is
    linear; the 2n rows make each secret's total width 1 and its yellow
    width q.

    A budget past the widest conditional ratio, where full disclosure is
    private and so optimal, is solved at that ratio, as solve_general does.
    The LP is built and solved by ipd.general (_width_lp, solve_lp), which
    raises SolverError on an answer that is not optimal or misses its rows.

    The solver side is solve_binary for two secrets, solve_general
    otherwise. best_utility is the LP optimum, best_structure the witness
    built from the types the LP keeps (_kept_columns) with each row
    rescaled to its exact sums, and trials the number of types. A
    two-secret LP goes to the in-package simplex; a larger one needs numpy
    and scipy, and MissingDependency is raised without them.
    """
    if u is None:
        raise TypeError("pattern_lp_oracle needs a utility function")
    n = prior.n
    if n > MAX_PATTERN_SECRETS:
        raise UnsupportedSize(
            f"{n} secrets exceeds the pattern LP cap of {MAX_PATTERN_SECRETS}"
        )
    bound = ratio_bound(eps, exp_eps)
    solver = _solver_structure(prior, u, bound)
    w = float(_clamped_budget(prior, bound))
    p = [float(x) for x in prior.p]

    # Pattern m makes row j wide when bit j of m is set, yellow set k holds
    # the secrets of the bits of k; the all-wide pattern, the all-narrow one
    # at scale w, is left out. Every yellow set takes every pattern.
    patterns = [[w if m >> j & 1 else 1.0 for j in range(n)] for m in range(2**n - 1)]
    subsets = [tuple(j for j in range(n) if k >> j & 1) for k in range(2**n)]
    rels = patterns * len(subsets)
    yellows = [yellow for yellow in subsets for _ in patterns]
    posts = [
        sum(rel[j] * p[j] for j in yellow) / sum(map(operator.mul, rel, p))
        for rel, yellow in zip(rels, yellows)
    ]
    problem = _width_lp(prior, u, rels, yellows, posts)
    solution = solve_lp(problem)
    _, widths, marks = _kept_columns(problem, solution.values, 0)
    witness = _rescaled_structure(prior, widths, marks, solution.max_residual)
    return OracleReport(
        best_utility=solution.objective,
        best_structure=witness,
        trials=len(rels),
        solver_utility=float(expected_utility(solver, u)),
        solver_dominates_all=blackwell_dominates(
            posterior_summary(solver), posterior_summary(witness)
        ).dominates,
    )
