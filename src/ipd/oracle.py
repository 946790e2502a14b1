"""Brute-force cross-checks for the solvers.

Nothing here is used by the solvers themselves. binary_grid_oracle sweeps
the two free widths of the binary optimum over a lattice and recovers the
middle widths from the row-sum algebra; random_structure_oracle throws
random private structures at a solver; enumerate_assignments lists every
chain of cut columns, whose LPs the single LP of solve_general must match;
naive_c_enumeration regenerates the middle-column cut patterns by raw
product enumeration plus filtering. Each gives an independent path to the
same answers the closed forms and the LP produce, which is the whole point:
the tests assert the solvers are never beaten and the enumerations agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .analysis import UtilityFn, expected_utility
from .binary import pack_columns, solve_binary
from .errors import NotBinarySecret, UnsupportedSize, ValidationError
from .general import CutAssignment, CutColumn, all_cuts, may_follow, solve_general
from .model import InfoStructure, Prior, posterior_summary
from .numeric import Scalar, check_slack, log_of, ratio_bound


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one brute-force challenge against a solver.

    trials counts the candidates actually scored (projection can discard
    some of the requested ones). best_structure is None when nothing
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
    if grid < 1:
        raise ValidationError("grid must be at least 1")
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
    if max_signals < 2:
        raise ValidationError("need at least 2 signals")
    if trials < 0:
        raise ValidationError("trials must be nonnegative")
    w = ratio_bound(eps, exp_eps)
    eps_f = log_of(w)
    slack = check_slack()
    n = prior.n
    p = np.array([float(x) for x in prior.p])
    q = np.array([float(x) for x in prior.q])

    if n == 2:
        solver_structure = solve_binary(prior, exp_eps=w).structure
    else:
        solver_structure = solve_general(prior, u=u, exp_eps=w).structure
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


def enumerate_assignments(
    n: int, eps: float | None = None, *, exp_eps: Scalar | None = None
) -> list[CutAssignment]:
    """Every chain of distinct cut columns for n secrets, the empty one first.

    The count grows quickly with n (12 for n=2, 320 for n=3). Solving each
    chain's LP and keeping the best is the slow reference for solve_general.
    """
    w = ratio_bound(eps, exp_eps)
    chains: list[tuple[CutColumn, ...]] = [()]
    for col in all_cuts(n):  # sorted, so every chain grows in its own order
        chains += [c + (col,) for c in chains if not c or may_follow(c[-1], col)]
    return [CutAssignment(n, chain, w) for chain in chains]


def canonical_matrix(
    columns: tuple[tuple[int, tuple[Scalar, ...]], ...]
) -> tuple[tuple[int, tuple[Scalar, ...]], ...]:
    """Order-free canonical form of an expanded column bank."""
    return tuple(
        sorted(columns, key=lambda col: (col[0], tuple(-float(x) for x in col[1])))
    )


def _vec_may_precede(n, first, second) -> bool:
    i1, v1 = first
    i2, v2 = second
    if i1 > i2:
        return False
    top1 = n + 1 - i1
    top2 = n + 1 - i2
    return all(v1[j] >= v2[j] for j in range(top2)) and all(
        v1[j] <= v2[j] for j in range(top1, n)
    )


def naive_c_enumeration(
    n: int,
    eps: float | None = None,
    *,
    exp_eps: Scalar | None = None,
    max_columns: int | None = None,
    allow_large: bool = False,
) -> set:
    """Enumerate valid middle-column banks the slow way.

    Generates raw per-column width-factor vectors over {1, e**eps}, filters
    each for the block shape a single column must have, then keeps exactly
    the multisets whose columns are pairwise orderable, with duplicates
    collapsed. Returns canonical expanded matrices for set comparison
    against enumerate_assignments. Deliberately exponential; n > 2 needs
    allow_large.
    """
    if n < 2:
        raise ValidationError("need at least 2 secrets")
    if n > 2 and not allow_large:
        raise UnsupportedSize(
            "raw enumeration is exponential; pass allow_large=True for n > 2"
        )
    w = ratio_bound(eps, exp_eps)
    if w == 1:
        raise ValidationError("raw enumeration needs a positive budget")
    types: list[tuple[int, tuple[Scalar, ...]]] = []
    for i in range(2, n + 1):
        top = n + 1 - i
        for bits in itertools.product((True, False), repeat=n):
            inside, outside = bits[:top], bits[top:]
            if any(a < b for a, b in zip(inside, inside[1:])):
                continue
            if any(a > b for a, b in zip(outside, outside[1:])):
                continue
            types.append((i, tuple(w if wide else 1 for wide in bits)))
    cap = 3 * n - 3 if max_columns is None else max_columns
    matrices = set()
    for length in range(cap + 1):
        for seq in itertools.product(types, repeat=length):
            bank = list(dict.fromkeys(seq))
            if all(
                _vec_may_precede(n, a, b) or _vec_may_precede(n, b, a)
                for a, b in itertools.combinations(bank, 2)
            ):
                matrices.add(canonical_matrix(tuple(bank)))
    return matrices
