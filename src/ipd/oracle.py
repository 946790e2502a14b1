"""Brute-force cross-checks for the solvers.

Nothing here is used by the solvers themselves. binary_grid_oracle sweeps
the two free widths of the binary optimum over a lattice and recovers the
middle widths from the row-sum algebra; random_structure_oracle throws
random private structures at a solver; pattern_lp_oracle solves one LP over
every (yellow set, width pattern) column type, which bounds every private
structure without the structure theorem that the cut bank of solve_general
rests on. Each gives an independent path to the same answers the closed
forms and the LP produce, which is the whole point: the tests assert the
solvers are never beaten.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import UtilityFn, blackwell_dominates, expected_utility
from .binary import pack_columns, solve_binary
from .errors import NotBinarySecret, SolverError, UnsupportedSize, ValidationError
from .general import _rescaled_structure, solve_general
from .model import InfoStructure, Prior, posterior_summary
from .numeric import Scalar, check_slack, log_of, ratio_bound

# Size caps of one oracle call, each keeping its largest array under about
# 0.5 GB: (grid + 1)**2 lattice floats, (trials x signals x (signals + the
# solver's signals)) dominance floats, a 2n x 2**n (2**n - 1) pattern matrix.
MAX_GRID = 2_000
MAX_TRIALS = 500_000
MAX_SIGNALS = 32
MAX_PATTERN_SECRETS = 8


@dataclass(frozen=True)
class OracleReport:
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

    The two anchor widths (all-yellow width of the high-q secret, all-white
    width of the low-q one) range over their budget boxes; the two middle
    widths follow from the row sums and must come out nonnegative. Every
    feasible lattice point is scored and convex-order-compared against
    solve_binary. grid=1 visits just the four box corners.
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

    l10 = np.linspace(q1 / w, min(w * q1, q0), grid + 1)[:, None]
    l41 = np.linspace((1 - q0) / w, min(w * (1 - q0), 1 - q1), grid + 1)[None, :]
    denom = w * w - 1.0
    l21 = (-w * l10 + l41 + w * q0 + q1 - 1.0) / denom
    l31 = w * (l10 - w * l41 - q0 - w * q1 + w) / denom
    feasible = (l21 >= -1e-15) & (l31 >= -1e-15)
    l21 = np.clip(l21, 0.0, None)
    l31 = np.clip(l31, 0.0, None)

    qt2 = w * p0 / (w * p0 + p1)
    qt3 = p0 / (p0 + w * p1)
    mass1 = p0 * l10 + p1 * q1
    mass2 = (p0 * w + p1) * l21
    mass3 = (p0 / w + p1) * l31
    mass4 = p0 * (1 - q0) + p1 * l41
    utilities = (
        float(u(1.0)) * mass1
        + float(u(qt2)) * mass2
        + float(u(qt3)) * mass3
        + float(u(0.0)) * mass4
    )

    dominates = True
    for x in (0.0, qt3, qt2, 1.0):
        h_solver = sum(
            float(p) * max(float(qv) - x, 0.0)
            for p, qv in zip(summary.p, summary.q)
        )
        h_grid = (
            mass1 * max(1.0 - x, 0.0)
            + mass2 * max(qt2 - x, 0.0)
            + mass3 * max(qt3 - x, 0.0)
        )
        if np.any(feasible & (h_grid > h_solver + slack)):
            dominates = False
            break

    if not feasible.any():
        return OracleReport(float("-inf"), None, 0, solver_utility, True)
    scored = np.where(feasible, utilities, -np.inf)
    flat = int(np.argmax(scored))
    a, b = np.unravel_index(flat, scored.shape)
    best = _binary_point_structure(
        prior, w, float(l10[a, 0]), float(l21[a, b]), float(l31[a, b]), float(l41[0, b])
    )
    return OracleReport(
        best_utility=float(expected_utility(best, u)),
        best_structure=best,
        trials=int(feasible.sum()),
        solver_utility=solver_utility,
        solver_dominates_all=bool(dominates),
    )


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
    otherwise. A seed is required; there is no implicit randomness.
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

    The solver side is solve_binary for two secrets, solve_general
    otherwise. best_utility is the LP optimum, best_structure the witness
    built from the positive types with each row rescaled to its exact sums,
    and trials the number of types.
    """
    if u is None:
        raise TypeError("pattern_lp_oracle needs a utility function")
    n = prior.n
    if n > MAX_PATTERN_SECRETS:
        raise UnsupportedSize(
            f"{n} secrets exceeds the pattern LP cap of {MAX_PATTERN_SECRETS}"
        )
    w = ratio_bound(eps, exp_eps)
    solver = _solver_structure(prior, u, w)
    from scipy.optimize import linprog

    # Row k of subsets marks the secrets of the binary expansion of k; as a
    # width pattern, the last row is the first at scale w.
    subsets = (np.arange(2**n)[:, None] >> np.arange(n) & 1).astype(bool)
    yellow = np.repeat(subsets, len(subsets) - 1, axis=0)
    widths = np.where(np.tile(subsets[:-1], (len(subsets), 1)), float(w), 1.0)
    p = np.array([float(x) for x in prior.p])
    gain = widths @ p * u((widths * yellow) @ p / (widths @ p))
    a_eq = np.vstack([widths.T, (widths * yellow).T])
    b_eq = np.array([1.0] * n + [float(x) for x in prior.q])
    options = dict(primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10)
    result = linprog(-gain, A_eq=a_eq, b_eq=b_eq, method="highs-ds", options=options)
    if result.status != 0:
        raise SolverError(f"pattern LP failed: {result.message}")
    x = result.x
    keep = x > 0
    residual = float(np.max(np.abs(a_eq @ x - b_eq)))
    witness = _rescaled_structure(
        prior, (x[keep, None] * widths[keep]).tolist(), yellow[keep].tolist(), residual
    )
    return OracleReport(
        best_utility=float(gain @ x),
        best_structure=witness,
        trials=len(gain),
        solver_utility=float(expected_utility(solver, u)),
        solver_dominates_all=blackwell_dominates(
            posterior_summary(solver), posterior_summary(witness)
        ).dominates,
    )
