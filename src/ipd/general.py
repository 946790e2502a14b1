"""LP-based optimal disclosure for any finite secret.

The optimum for n secrets lives on at most one all-yellow signal, one
all-white signal, and a chain of middle signals whose yellow region is a
top-aligned block of rows. A middle column is encoded by three cut indices
(i, b, c): rows 1..n+1-i are yellow, rows 1..b get the wide width (factor
e**eps) inside the yellow block, rows c..n get it below the block. Widths
within such a column are all tied to the bottom row's width, and its
posterior depends only on the prior and the cut, not on the widths.

A bank of columns is described by two (columns x rows) boolean masks,
`yellow` and `wide`, read as rows of a per-n table that expands every cut
once. The relative widths, the posteriors, the LP's coefficient blocks and
the rebuilt structure are all array expressions of those masks.

Every cut column meets the budget on its own, so one LP whose middle
variables are all the non-uniform cut columns at once admits only private
structures, and each chain's LP is that LP with some columns held at zero;
by the structure theorem the best chain, and so this LP, reaches the global
optimum. A piecewise-linear utility can leave the LP on an optimal vertex
whose positive columns are not a chain; only then does a second LP hold the
objective within CHECK_TOL of the optimum and maximize the strictly convex
quadratic utility, which lands on a chain.

assemble_lp/solve_lp handle one linear program; solve_general builds the
bank, runs one or two LPs, and rebuilds the structure from the chain.
linprog is the one LP backend: an LP with equality rows only and finite
bounds goes to a small bounded-variable simplex in pure Python, and every
other LP to HiGHS's dual simplex. The two-secret LP (at most six
variables) is the only equality-only one the solver builds, since every LP
for three or more secrets has budget-pair rows, so a two-secret solve does
not import scipy. HiGHS is called through the bindings scipy bundles, with
the model and options scipy's linprog(method="highs-ds") would pass it but
none of that wrapper's per-call checks. solve_lp raises SolverError on any
answer that is not optimal, and makes the one check of an optimal answer
that matters, holding its x to FEASIBILITY_TOL on every row and bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .analysis import UtilityFn, expected_utility
from .binary import _width_ratios
from .errors import SolverError, UnsupportedSize, ValidationError
from .model import InfoStructure, Mechanism, Prior, compress, structure_to_mechanism
from .numeric import CHECK_TOL, MAX_SECRETS, Scalar, is_exact, ratio_bound


class CutColumn(NamedTuple):
    """One middle column: yellow rows 1..n+1-i, wide rows 1..b and c..n."""

    i: int
    b: int
    c: int


def may_follow(first: CutColumn, second: CutColumn) -> bool:
    """Whether second can sit to the right of first in a chain."""
    return second.i >= first.i and second.b <= first.b and second.c <= first.c


def all_cuts(n: int) -> list[CutColumn]:
    """Every in-range cut for n secrets, sorted by (i, -b, -c).

    The key lists any chain in its own order, so a sorted set of cuts is a
    chain exactly when each column may follow its predecessor.
    """
    return [
        CutColumn(i, b, c)
        for i in range(2, n + 1)
        for b in range(n + 1 - i, -1, -1)
        for c in range(n + 1, n + 1 - i, -1)
    ]


@lru_cache(maxsize=8)
def _cut_table(n: int) -> tuple[dict[CutColumn, int], np.ndarray, np.ndarray]:
    """Position, yellow mask and wide mask of every in-range cut for n secrets.

    The one place the (i, b, c) encoding is expanded: a bank's masks are
    rows of these (cuts x rows) arrays, which the budget does not change.
    """
    cuts = all_cuts(n)
    i, b, c = np.array(cuts).T[:, :, None]
    rows = np.arange(1, n + 1)
    yellow = rows <= n + 1 - i
    wide = np.where(yellow, rows <= b, rows >= c)
    yellow.flags.writeable = wide.flags.writeable = False  # shared by every bank
    return {cut: k for k, cut in enumerate(cuts)}, yellow, wide


def _width_bounds(w: Scalar) -> tuple[float, float]:
    """1/w and w as floats, 1/w rounded once when w is exact."""
    return float(1 / w) if is_exact(w) else 1.0 / w, float(w)


@dataclass(frozen=True)
class CutAssignment:
    """A bank of distinct in-range middle columns for an n-secret instance.

    Its yellow and wide masks are rows of the cut table of n; the budget
    rides along so the relative widths and width factors are
    self-contained. A chain, the shape an optimal structure has, lists its
    columns in decreasing-posterior order, which the cut encoding makes
    equivalent to i non-decreasing with b and c non-increasing.
    """

    n: int
    columns: tuple[CutColumn, ...]
    exp_eps: Scalar

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValidationError("need at least 2 secrets")
        if not self.exp_eps >= 1:
            raise ValidationError("budget factor must be at least 1")
        cols = tuple(CutColumn(*c) for c in self.columns)
        object.__setattr__(self, "columns", cols)
        position = _cut_table(self.n)[0]
        for col in cols:
            if col not in position:
                raise ValidationError(f"cut {col} out of range for n={self.n}")
        if len(set(cols)) != len(cols):
            raise ValidationError("duplicate cut columns")

    @property
    def is_chain(self) -> bool:
        """True when each column may follow the one before it."""
        return all(
            may_follow(first, second)
            for first, second in zip(self.columns, self.columns[1:])
        )

    @cached_property
    def _positions(self) -> list[int]:
        position = _cut_table(self.n)[0]
        return [position[col] for col in self.columns]

    @cached_property
    def yellow(self) -> np.ndarray:
        """(columns x rows) mask of each column's yellow block, rows 1..n+1-i."""
        return _cut_table(self.n)[1][self._positions]

    @cached_property
    def wide(self) -> np.ndarray:
        """(columns x rows) mask of the wide rows: 1..b in the block, c..n below."""
        return _cut_table(self.n)[2][self._positions]

    @cached_property
    def relative_widths(self) -> np.ndarray:
        """(columns x rows) width over the bottom row's width: 1/w, 1 or w."""
        inv_w, w = _width_bounds(self.exp_eps)
        wide = self.wide
        return np.where(wide == wide[:, -1:], 1.0, np.where(wide, w, inv_w))


def _full_bank(n: int, exp_eps: Scalar) -> CutAssignment:
    """Every cut column the single LP needs, sorted by (i, -b, -c).

    At a positive budget that is every column that is not width-uniform (a
    uniform column never binds the budget, so it never strictly helps). At a
    zero budget every column is uniform and all columns sharing an i are the
    same column, so one per i remains.
    """
    if exp_eps == 1:
        cols = tuple(CutColumn(i, 0, n + 2 - i) for i in range(2, n + 1))
    else:
        position, _, wide = _cut_table(n)  # position lists the cuts in order
        uniform = wide.all(axis=1) | ~wide.any(axis=1)
        cols = tuple(col for col, flat in zip(position, uniform.tolist()) if not flat)
    return CutAssignment(n, cols, exp_eps)


def _column_posteriors(prior: Prior, bank: CutAssignment) -> tuple[Scalar, ...]:
    """P(Y=1 | column) per column; fixed by the cut and prior alone.

    The yellow block's prior mass over the column's, each row's mass scaled
    by its width factor, so exact inputs give exact posteriors.
    """
    p, w = prior.p, bank.exp_eps
    mass = [
        [x * w if wide else x for x, wide in zip(p, row)] for row in bank.wide.tolist()
    ]
    return tuple(
        sum(x for x, y in zip(row, yellow) if y) / sum(row)
        for row, yellow in zip(mass, bank.yellow.tolist())
    )


@dataclass(frozen=True, eq=False)
class LpProblem:
    """The linear program of one bank of columns, stored as dense arrays.

    Variables: a width ratio per non-bottom row of the all-yellow column, a
    width ratio per non-top row of the all-white column, then the bottom-row
    width of each middle column. Maximize objective . x + offset subject to
    a_eq x = b_eq, a_ub x <= b_ub, and the (variables x 2) box bounds.
    Problems compare by identity, since their fields are arrays.
    """

    prior: Prior
    assignment: CutAssignment
    objective: np.ndarray
    offset: float
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    bounds: np.ndarray
    column_posteriors: tuple[Scalar, ...]


@dataclass(frozen=True, eq=False)
class LpSolution:
    """An optimal answer: linprog's x, objective . x + offset, its worst miss."""

    values: np.ndarray
    objective: float
    max_residual: float


def _objective(
    prior: Prior, u: UtilityFn, bank: CutAssignment, posts: tuple[Scalar, ...]
) -> tuple[np.ndarray, float]:
    """LP objective coefficients and constant offset for utility u.

    The anchor rows of the all-yellow and all-white columns are the offset;
    each middle column earns u at its fixed posterior per unit of mass.
    """
    p = [float(x) for x in prior.p]
    top = float(u(1)) * float(prior.q[-1])  # u(1) times the all-yellow anchor width
    bottom = float(u(0)) * float(1 - prior.q[0])  # u(0) times the all-white one
    # Python's sum adds each row in order; np.sum pairs the terms of long rows
    mass = [sum(row) for row in (bank.relative_widths * p).tolist()]
    objective = np.array([
        *(top * x for x in p[:-1]),
        *(bottom * x for x in p[1:]),
        *(float(u(post)) * x for post, x in zip(posts, mass)),
    ])
    return objective, top * p[-1] + bottom * p[0]


def assemble_lp(prior: Prior, u: UtilityFn, assignment: CutAssignment) -> LpProblem:
    """Build the LP for one bank of columns; the budget is the bank's own.

    The all-yellow column's bottom row and the all-white column's top row
    are fixed by the prior (the bottom secret's yellow mass has nowhere else
    to go, likewise the top secret's white mass), so only ratios against
    those anchors are free. Middle-column posteriors are constants, which is
    what keeps the objective linear.

    The first n equality rows fix each secret's total width, the next n its
    yellow width; the middle columns enter them through the bank's relative
    widths, masked by its yellow block in the second half.
    """
    n = prior.n
    if assignment.n != n:
        raise ValidationError(
            f"assignment is for n={assignment.n}, prior has n={n}"
        )
    m = len(assignment.columns)
    q = [float(x) for x in prior.q]
    anchor_yellow = q[n - 1]
    anchor_white = float(1 - prior.q[0])
    rel = assignment.relative_widths
    inv_w, w = _width_bounds(assignment.exp_eps)
    ratios = 2 * (n - 1)

    eye = np.eye(n - 1)
    a_eq = np.zeros((2 * n, ratios + m))
    # the all-yellow column's rows 1..n-1, the all-white column's rows 2..n
    a_eq[: n - 1, : n - 1] = a_eq[n : 2 * n - 1, : n - 1] = anchor_yellow * eye
    a_eq[1:n, n - 1 : ratios] = anchor_white * eye
    a_eq[:n, ratios:] = rel.T
    a_eq[n:, ratios:] = (rel * assignment.yellow).T
    # each row's total is 1 and its yellow width q, less what an anchor holds
    # (the bottom row's yellow width is all anchor)
    totals = [1.0 - anchor_white, *[1.0] * (n - 2), 1.0 - anchor_yellow]
    b_eq = np.array([*totals, *q[:-1], 0.0])

    # The box on the ratio variables only controls each row against the
    # anchor row; for n >= 3 the budget must also hold between two non-anchor
    # rows of the same column: x_j - w x_j2 <= 0 for each ordered pair.
    pairs = [
        (start + j, start + j2)
        for start in (0, n - 1)
        for j in range(n - 1)
        for j2 in range(n - 1)
        if j != j2
    ]
    rows = range(len(pairs))
    a_ub = np.zeros((len(pairs), ratios + m))
    a_ub[rows, [j for j, _ in pairs]] = 1.0
    a_ub[rows, [j2 for _, j2 in pairs]] = -w

    posts = _column_posteriors(prior, assignment)
    objective, offset = _objective(prior, u, assignment, posts)
    bounds = np.array([(inv_w, w)] * ratios + [(0.0, 1.0)] * m)
    return LpProblem(
        prior=prior,
        assignment=assignment,
        objective=objective,
        offset=offset,
        a_eq=a_eq,
        b_eq=b_eq,
        a_ub=a_ub,
        b_ub=np.zeros(len(pairs)),
        bounds=bounds,
        column_posteriors=posts,
    )


class LinprogResult(NamedTuple):
    """linprog's answer: scipy's status code, x when optimal, and a message."""

    status: int  # 0 optimal, 2 infeasible, anything else a failure
    x: np.ndarray | None
    message: str


# What the simplex's answer must meet to be returned: the largest equality
# residual, and how far a variable may sit past a bound, relative to the
# bound's size (absolute below 1).
GUARD_TOL = 1e-12
# Smallest tableau entry that limits a step, and smallest reduced cost that
# counts as an improvement; both in units of the scaled variables below.
_PIVOT_TOL = 1e-11
_COST_TOL = 1e-12
# How far solve_lp lets a backend's optimal x miss a bound or a row: scipy's
# linprog check, 10 * sqrt(tol) at its default tol of 1e-9.
FEASIBILITY_TOL = 10 * math.sqrt(1e-9)


def linprog(
    c: np.ndarray,
    A_ub: np.ndarray,
    b_ub: np.ndarray,
    A_eq: np.ndarray,
    b_eq: np.ndarray,
    bounds: np.ndarray,
):
    """Minimize c . x subject to A_ub x <= b_ub, A_eq x = b_eq and box bounds.

    solve_lp's backend; the pattern-LP oracle goes through scipy's own
    linprog instead, so that it stays an independent check of this path.
    The arguments are arrays, bounds one (low, high) row per variable; the
    result carries scipy's status (0 optimal, 2 infeasible), x and a
    message. An LP with no inequality rows and finite bounds (of the
    solver's LPs, only the two-secret one) goes to a dense bounded-variable
    simplex in pure Python, whose answer is taken only when it passes the
    GUARD_TOL checks. Every other LP, and every one the simplex fails or
    the guard rejects, goes to HiGHS's dual simplex through _highs; scipy
    is imported then, on first use, so a two-secret solve normally never
    loads it.
    """
    if not len(b_ub) and np.isfinite(bounds).all():
        lo, hi = bounds.T.tolist()
        a, b = A_eq.tolist(), b_eq.tolist()
        x = _bounded_simplex(c.tolist(), a, b, lo, hi)
        if x is not None and (x := _guarded(x, a, b, lo, hi)) is not None:
            return LinprogResult(0, np.array(x), "optimal (bounded simplex)")
    return _highs(c, A_ub, b_ub, A_eq, b_eq, bounds)


def _highs(
    c: np.ndarray,
    A_ub: np.ndarray,
    b_ub: np.ndarray,
    A_eq: np.ndarray,
    b_eq: np.ndarray,
    bounds: np.ndarray,
) -> LinprogResult:
    """linprog's LP on HiGHS's dual simplex, through scipy's HiGHS bindings.

    The model and options are the ones scipy's linprog(method="highs-ds")
    hands HiGHS, without its input checks and result post-processing: the
    rows are A_ub then A_eq, stored by column with zeros dropped, each
    inequality row running from -inf and each equality row pinned at both
    ends; presolve on, primal and dual feasibility tolerances 1e-10, no
    output. An optimal model gives status 0 and HiGHS's x, an infeasible
    one status 2; any other model status, or an error from HiGHS, gives
    status 4. solve_lp checks the x.
    """
    from scipy.optimize._highspy import _core as highs

    a = np.concatenate((A_ub.T, A_eq.T), axis=1)  # the LP's columns, one per row
    nonzero = a != 0
    cols, rows = nonzero.nonzero()
    lp = highs.HighsLp()
    lp.num_col_, lp.num_row_ = a.shape
    matrix = lp.a_matrix_
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = a.shape
    # integer vectors cross the binding fastest as lists, float ones as arrays
    matrix.start_ = [0, *np.cumsum(np.bincount(cols, minlength=len(a))).tolist()]
    matrix.index_ = rows.tolist()
    matrix.value_ = a[nonzero]
    lp.col_cost_ = c
    lp.col_lower_, lp.col_upper_ = bounds.T.copy()
    lp.row_lower_ = np.concatenate((np.full(len(b_ub), -highs.kHighsInf), b_eq))
    lp.row_upper_ = np.concatenate((b_ub, b_eq))

    solver = highs._Highs()
    error = highs.HighsStatus.kError
    ran = (
        solver.passOptions(_highs_options()) != error
        and solver.passModel(lp) != error
        and solver.run() != error
    )
    status = solver.getModelStatus()
    message = f"HiGHS model status {solver.modelStatusToString(status)}"
    if not ran:
        return LinprogResult(4, None, f"HiGHS could not load or run the LP; {message}")
    if status == highs.HighsModelStatus.kOptimal:
        return LinprogResult(0, np.array(solver.getSolution().col_value), message)
    if status == highs.HighsModelStatus.kInfeasible:
        return LinprogResult(2, None, message)
    return LinprogResult(4, None, message)


@lru_cache(maxsize=1)
def _highs_options():
    """The options scipy's linprog(method="highs-ds") sets, built once.

    HiGHS copies them into each solver it is passed to.
    """
    from scipy.optimize._highspy import _core as highs

    options = highs.HighsOptions()
    options.solver = "simplex"
    strategy = highs.simplex_constants.SimplexStrategy
    options.simplex_strategy = strategy.kSimplexStrategyDual
    options.presolve = "on"
    options.primal_feasibility_tolerance = 1e-10
    options.dual_feasibility_tolerance = 1e-10
    options.output_flag = options.log_to_console = False
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    return options


def _guarded(
    x: list[float],
    a: list[list[float]],
    b: list[float],
    lo: list[float],
    hi: list[float],
) -> list[float] | None:
    """x clipped onto its bounds, or None if it fails the GUARD_TOL checks.

    A variable may sit past a bound by GUARD_TOL times the bound's size
    (absolute below 1) before it is clipped; the clipped point must then
    meet every equality row within GUARD_TOL.
    """
    clipped = []
    for xj, low, high in zip(x, lo, hi):
        below = low - GUARD_TOL * max(abs(low), 1.0)
        above = high + GUARD_TOL * max(abs(high), 1.0)
        if not below <= xj <= above:  # a NaN fails too
            return None
        clipped.append(min(max(xj, low), high))
    for row, bi in zip(a, b):
        if not abs(sum(aij * xj for aij, xj in zip(row, clipped)) - bi) <= GUARD_TOL:
            return None
    return clipped


def _bounded_simplex(
    c: list[float],
    a: list[list[float]],
    b: list[float],
    lo: list[float],
    hi: list[float],
) -> list[float] | None:
    """Minimize c . x subject to a x = b and lo <= x <= hi, all bounds finite.

    A dense tableau simplex whose nonbasic variables sit at one of their
    bounds (Dantzig 1955), so bounds need no rows. Each variable is first
    scaled by the larger magnitude of its bounds, so no range is wider than
    1 and a width ratio bounded by e**eps moves no further, in the
    tolerances' eyes, than a column weight bounded by 1. Phase 1 starts
    every variable at its lower bound, gives each row an artificial
    variable holding its residual, and drives their sum to zero; phase 2
    fixes the artificials at zero and minimizes c. Returns x, or None when
    phase 1 leaves a residual above GUARD_TOL or a phase stops early.
    """
    scale = [max(abs(low), abs(high)) or 1.0 for low, high in zip(lo, hi)]
    c = [cj * s for cj, s in zip(c, scale)]
    a = [[aij * s for aij, s in zip(row, scale)] for row in a]
    lo = [low / s for low, s in zip(lo, scale)]
    hi = [high / s for high, s in zip(hi, scale)]
    m, nv = len(b), len(c)
    residual = [bi - sum(aij * xj for aij, xj in zip(row, lo)) for row, bi in zip(a, b)]
    sign = [1.0 if r >= 0 else -1.0 for r in residual]
    # The tableau is B^-1 [a | diag(sign)]; the artificials start basic, so
    # B = diag(sign) and row i is row i of a times sign[i].
    tableau = [
        [s * v for v in row] + [float(k == i) for k in range(m)]
        for i, (row, s) in enumerate(zip(a, sign))
    ]
    x = [*lo, *map(abs, residual)]
    lo, hi = [*lo, *[0.0] * m], [*hi, *[math.inf] * m]
    basis = list(range(nv, nv + m))
    if not _pivot_to_optimum(tableau, basis, x, [0.0] * nv + [1.0] * m, lo, hi):
        return None
    if any(v > GUARD_TOL for v in x[nv:]):
        return None
    hi[nv:] = [0.0] * m  # the artificials stay at zero from here on
    if not _pivot_to_optimum(tableau, basis, x, [*c, *[0.0] * m], lo, hi):
        return None
    return [xj * s for xj, s in zip(x, scale)]


def _pivot_to_optimum(
    tableau: list[list[float]],
    basis: list[int],
    x: list[float],
    cost: list[float],
    lo: list[float],
    hi: list[float],
) -> bool:
    """Take simplex steps, in place, until no step lowers cost . x.

    The entering variable has the reduced cost of largest magnitude
    (Dantzig's rule), or the lowest index right after a degenerate step
    (Bland's rule, which cannot cycle). It moves until a basic variable
    reaches a bound and leaves the basis there, or until it reaches its own
    other bound. Returns False on an unbounded ray or at the step cap.
    """
    width = len(x)
    reduced = [
        cj - sum(cost[k] * row[j] for k, row in zip(basis, tableau))
        for j, cj in enumerate(cost)
    ]
    degenerate = False
    for _ in range(50 * width):
        basic = set(basis)
        candidates = [
            j
            for j in range(width)
            if j not in basic
            and lo[j] < hi[j]
            and (
                (reduced[j] < -_COST_TOL and x[j] == lo[j])
                or (reduced[j] > _COST_TOL and x[j] == hi[j])
            )
        ]
        if not candidates:
            return True
        if degenerate:
            j = candidates[0]
        else:
            j = max(candidates, key=lambda k: abs(reduced[k]))
        direction = 1.0 if reduced[j] < 0 else -1.0
        # The step ends at j's other bound or where a basic variable, moving
        # by -alpha per unit, meets one of its bounds; ties leave by index.
        step, leave = hi[j] - lo[j], None
        for i, k in enumerate(basis):
            alpha = tableau[i][j] * direction
            if alpha > _PIVOT_TOL:
                limit = max(x[k] - lo[k], 0.0) / alpha
            elif alpha < -_PIVOT_TOL:
                limit = max(hi[k] - x[k], 0.0) / -alpha
            else:
                continue
            tie = limit == step and leave is not None and k < basis[leave]
            if limit < step or tie:
                step, leave = limit, i
        if step == math.inf:
            return False
        for i, k in enumerate(basis):
            x[k] -= tableau[i][j] * direction * step
        if leave is None:
            x[j] = hi[j] if direction > 0 else lo[j]
        else:
            x[j] += direction * step
            k = basis[leave]
            x[k] = lo[k] if tableau[leave][j] * direction > 0 else hi[k]
            pivot = tableau[leave]
            pivot = tableau[leave] = [v / pivot[j] for v in pivot]
            for i, row in enumerate(tableau):
                if i != leave and row[j]:
                    f = row[j]
                    tableau[i] = [v - f * p for v, p in zip(row, pivot)]
            f = reduced[j]
            reduced = [v - f * p for v, p in zip(reduced, pivot)]
            basis[leave] = j
        degenerate = step == 0
    return False


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve one assembled LP through linprog.

    Any answer but an optimal one, infeasible included, raises SolverError
    with the backend's message. So does an optimal x that is NaN or misses
    a bound, an inequality row or an equality row by more than
    FEASIBILITY_TOL, the check scipy's linprog makes on HiGHS's answer.
    linprog is looked up as a module global at call time, so a replacement
    bound here (a test's fake, a tracer's wrapper) sees every solve.
    """
    result = linprog(
        -problem.objective,
        problem.a_ub,
        problem.b_ub,
        problem.a_eq,
        problem.b_eq,
        problem.bounds,
    )
    if result.status != 0:
        raise SolverError(f"LP solver failed: {result.message}")
    x = result.x
    lo, hi = problem.bounds.T
    residual = np.max(np.concatenate([
        np.abs(problem.a_eq @ x - problem.b_eq),
        problem.a_ub @ x - problem.b_ub,
        lo - x,
        x - hi,
    ]))
    if not residual <= FEASIBILITY_TOL:  # a NaN fails too
        raise SolverError(
            f"LP solver answer misses its rows or bounds by {residual:.3g}, "
            f"more than {FEASIBILITY_TOL:.3g}"
        )
    objective = float(problem.objective @ x) + problem.offset
    return LpSolution(x, objective, float(residual))


def _support(problem: LpProblem, solution: LpSolution) -> np.ndarray:
    """Mask of the bank's columns with positive LP value."""
    return solution.values[2 * (problem.prior.n - 1) :] > 0


def _chain(problem: LpProblem, solution: LpSolution) -> CutAssignment:
    """The columns with positive LP value, in the bank's (i, -b, -c) order."""
    bank = problem.assignment
    support = _support(problem, solution)
    cols = tuple(col for col, kept in zip(bank.columns, support) if kept)
    return CutAssignment(bank.n, cols, bank.exp_eps)


def _hold_and_maximize_quadratic(
    problem: LpProblem, solution: LpSolution
) -> tuple[LpProblem, LpSolution]:
    """Among the optima of problem, the one best for the quadratic utility.

    The row objective . x + offset >= optimum - CHECK_TOL keeps the primary
    value; a tighter slack lets solver round-off cut off the chain optima.
    The constraint rows are the first LP's; only the objective is rebuilt.
    """
    objective, offset = _objective(
        problem.prior,
        UtilityFn("quadratic"),
        problem.assignment,
        problem.column_posteriors,
    )
    floor = solution.objective - problem.offset - CHECK_TOL
    held = replace(
        problem,
        objective=objective,
        offset=offset,
        a_ub=np.vstack([problem.a_ub, -problem.objective]),
        b_ub=np.append(problem.b_ub, -floor),
    )
    return held, solve_lp(held)


def _structure_from_lp(problem: LpProblem, solution: LpSolution) -> InfoStructure:
    """Rebuild the width grid of the chain's columns, then its exact row sums.

    Columns of the bank outside the chain carry no mass and are left out.
    """
    prior = problem.prior
    n = prior.n
    bank = problem.assignment
    x = solution.values
    support = _support(problem, solution)
    middle = x[2 * (n - 1) :][support]
    m = len(middle)
    # (columns x rows), as the bank's arrays are: the all-yellow column,
    # the chain's columns, the all-white column
    anchor_yellow, anchor_white = float(prior.q[n - 1]), float(1 - prior.q[0])
    widths = np.empty((m + 2, n))
    widths[0] = [*x[: n - 1] * anchor_yellow, anchor_yellow]
    widths[1:-1] = bank.relative_widths[support] * middle[:, None]
    widths[-1] = [anchor_white, *x[n - 1 : 2 * (n - 1)] * anchor_white]
    yellow = np.zeros((m + 2, n), dtype=bool)
    yellow[0] = True
    yellow[1:-1] = bank.yellow[support]
    return _rescaled_structure(prior, widths, yellow, solution.max_residual)


def _rescaled_structure(
    prior: Prior, widths: np.ndarray, yellow: np.ndarray, residual: float
) -> InfoStructure:
    """The structure of (columns x rows) LP widths, rescaled to exact row sums.

    An LP's 1e-9-level residuals would trip the structure's normalization
    checks, so each row's yellow and white widths are rescaled in place to
    the prior's shares; a share above max(CHECK_TOL, 10 * residual) that no
    column covers is a SolverError. The signals are t1, t2, ... in order.
    """
    # Per secret, its yellow and then its white widths summed in column
    # order, each against the share of the prior (q, then 1 - q) it must hold.
    sums = [
        (target, total)
        for row, mark, q in zip(widths.T.tolist(), yellow.T.tolist(), prior.q)
        for target, total in (
            (float(q), sum(w for w, y in zip(row, mark) if y)),
            (float(1 - q), sum(w for w, y in zip(row, mark) if not y)),
        )
    ]
    slack = max(CHECK_TOL, 10 * residual)
    if any(total <= 0 and target > slack for target, total in sums):
        raise SolverError("LP solution does not cover a row's required mass")
    scale = np.array([target / total if total > 0 else 1.0 for target, total in sums])
    widths *= np.where(yellow, scale[0::2], scale[1::2])
    return InfoStructure(
        prior=prior,
        signals=tuple(f"t{k + 1}" for k in range(len(widths))),
        widths=tuple(map(tuple, widths.T.tolist())),
        cells=tuple(map(tuple, yellow.T.astype(float).tolist())),
    )


@dataclass(frozen=True)
class GeneralSolution:
    """The compressed optimum, its chain of cuts and its utility.

    mechanism is derived from structure on first read and cached, so
    IPD_TOLERANCE is read then, not at solve time.
    """

    structure: InfoStructure
    assignment: CutAssignment
    utility: float

    @cached_property
    def mechanism(self) -> Mechanism:
        return structure_to_mechanism(self.structure)


def solve_general(
    prior: Prior,
    eps: float | None = None,
    u: UtilityFn | None = None,
    *,
    exp_eps: Scalar | None = None,
    max_secrets: int = MAX_SECRETS,
) -> GeneralSolution:
    """Best eps-private structure for a given utility and up to max_secrets.

    Solves one LP over every non-uniform cut column. When the columns with
    positive value do not form a chain (possible only on ties, as with a
    piecewise-linear utility), a second LP keeps the objective within
    CHECK_TOL of the optimum and maximizes the quadratic utility, which
    breaks the tie toward a chain. A budget past the point where full
    disclosure is private solves at that point, with the same optimum. The
    reported assignment is the chain of positive columns sorted by
    (i, -b, -c); the structure is rebuilt from those columns alone and
    compressed; its mechanism is derived only when read.

    Raises:
        UnsupportedSize: n exceeds max_secrets (the dense LP has O(n**3)
            columns and O(n**2) rows).
        SolverError: an LP's answer was not optimal (infeasible is seen
            only at extreme budgets with a conditional of 0 or 1) or missed
            its rows or bounds, or the tie-break still left a non-chain.
    """
    if u is None:
        raise TypeError("solve_general needs a utility function")
    if prior.n > max_secrets:
        raise UnsupportedSize(
            f"{prior.n} secrets exceeds the cap of {max_secrets}; "
            "raise max_secrets to proceed"
        )
    # Past the widest conditional ratio full disclosure is private and optimal,
    # so the LP runs there: a larger budget adds nothing but ill-conditioning.
    w = min(ratio_bound(eps, exp_eps), max(_width_ratios(prior.q[0], prior.q[-1])))
    problem = assemble_lp(prior, u, _full_bank(prior.n, w))
    solution = solve_lp(problem)
    if not _chain(problem, solution).is_chain:
        problem, solution = _hold_and_maximize_quadratic(problem, solution)
    chain = _chain(problem, solution)
    if not chain.is_chain:
        raise SolverError(f"LP optimum is not a chain of cuts: {chain.columns}")
    structure = compress(_structure_from_lp(problem, solution))
    return GeneralSolution(
        structure=structure,
        assignment=chain,
        utility=float(expected_utility(structure, u)),
    )
