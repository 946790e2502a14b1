"""LP-based optimal disclosure for any finite secret.

The optimum for n secrets lives on at most one all-yellow signal, one
all-white signal, and a chain of middle signals whose yellow region is a
top-aligned block of rows. A middle column is encoded by three cut indices
(i, b, c): rows 1..n+1-i are yellow, rows 1..b get the wide width (factor
e**eps) inside the yellow block, rows c..n get it below the block. Widths
within such a column are all tied to the bottom row's width, and its
posterior depends only on the prior and the cut, not on the widths.

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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .analysis import UtilityFn, expected_utility
from .binary import _width_ratios
from .errors import SolverError, UnsupportedSize, ValidationError
from .model import InfoStructure, Mechanism, Prior, compress, structure_to_mechanism
from .numeric import CHECK_TOL, Scalar, is_exact, ratio_bound

MAX_SECRETS = 20  # the dense LP has O(n**3) columns and O(n**2) rows


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


@dataclass(frozen=True)
class CutAssignment:
    """A bank of distinct in-range middle columns for an n-secret instance.

    The budget rides along so the expansion to width factors is
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
        in_range = set(all_cuts(self.n))
        for col in cols:
            if col not in in_range:
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

    def yellow_rows(self, col: CutColumn) -> range:
        """1-based rows of the yellow block of this column."""
        return range(1, self.n + 2 - col.i)

    def factor_vector(self, col: CutColumn) -> tuple[Scalar, ...]:
        """Per-row width factor (e**eps for wide rows, 1 for narrow)."""
        w = self.exp_eps
        top = self.n + 1 - col.i
        return tuple(
            w if (j <= col.b if j <= top else j >= col.c) else 1
            for j in range(1, self.n + 1)
        )

    def is_width_uniform(self, col: CutColumn) -> bool:
        """True when every row of the column has the same width factor."""
        factors = self.factor_vector(col)
        return all(f == factors[0] for f in factors)

    def column_posterior(self, prior: Prior, col: CutColumn) -> Scalar:
        """P(Y=1 | this signal); fixed by the cut and prior alone."""
        factors = self.factor_vector(col)
        total = sum(p * f for p, f in zip(prior.p, factors))
        top = self.n + 1 - col.i
        yellow = sum(prior.p[j] * factors[j] for j in range(top))
        return yellow / total

    def expanded(self) -> tuple[tuple[int, tuple[Scalar, ...]], ...]:
        """(i, factor vector) per column, the raw form of the assignment."""
        return tuple((col.i, self.factor_vector(col)) for col in self.columns)


def _full_bank(n: int, exp_eps: Scalar) -> CutAssignment:
    """Every cut column the single LP needs, sorted by (i, -b, -c).

    At a positive budget that is every column that is not width-uniform (a
    uniform column never binds the budget, so it never strictly helps). At a
    zero budget every column is uniform and all columns sharing an i are the
    same column, so one per i remains.
    """
    if exp_eps == 1:
        cols = [CutColumn(i, 0, n + 2 - i) for i in range(2, n + 1)]
    else:
        every = CutAssignment(n, tuple(all_cuts(n)), exp_eps)
        cols = [col for col in every.columns if not every.is_width_uniform(col)]
    return CutAssignment(n, tuple(cols), exp_eps)


@dataclass(frozen=True)
class LpProblem:
    """The linear program of one bank of columns, stored dense.

    Variables: a width ratio per non-bottom row of the all-yellow column, a
    width ratio per non-top row of the all-white column, then the bottom-row
    width of each middle column. Maximize objective . x + offset subject to
    a_eq x = b_eq, a_ub x <= b_ub, and box bounds.
    """

    prior: Prior
    assignment: CutAssignment
    var_names: tuple[str, ...]
    objective: tuple[float, ...]
    offset: float
    a_eq: tuple[tuple[float, ...], ...]
    b_eq: tuple[float, ...]
    a_ub: tuple[tuple[float, ...], ...]
    b_ub: tuple[float, ...]
    bounds: tuple[tuple[float, float], ...]
    column_posteriors: tuple[Scalar, ...]


@dataclass(frozen=True)
class LpSolution:
    status: str
    values: tuple[float, ...] | None
    objective: float | None
    max_residual: float | None


def _relative_widths(assignment: CutAssignment) -> list[list[float]]:
    """Per column of the bank, each row's width over the bottom row's."""
    n = assignment.n
    return [
        [float(f[j] / f[n - 1]) for j in range(n)]
        for f in map(assignment.factor_vector, assignment.columns)
    ]


def _objective(
    prior: Prior, u: UtilityFn, rel: list[list[float]], posts: tuple[Scalar, ...]
) -> tuple[tuple[float, ...], float]:
    """LP objective coefficients and constant offset for utility u.

    The anchor rows of the all-yellow and all-white columns are the offset;
    each middle column earns u at its fixed posterior per unit of mass.
    """
    p = [float(x) for x in prior.p]
    top = float(u(1)) * float(prior.q[-1])  # u(1) times the all-yellow anchor width
    bottom = float(u(0)) * float(1 - prior.q[0])  # u(0) times the all-white one
    objective = [top * x for x in p[:-1]] + [bottom * x for x in p[1:]]
    objective += [
        float(u(post)) * sum(x * r for x, r in zip(p, row))
        for row, post in zip(rel, posts)
    ]
    return tuple(objective), top * p[-1] + bottom * p[0]


def assemble_lp(prior: Prior, u: UtilityFn, assignment: CutAssignment) -> LpProblem:
    """Build the LP for one bank of columns; the budget is the bank's own.

    The all-yellow column's bottom row and the all-white column's top row
    are fixed by the prior (the bottom secret's yellow mass has nowhere else
    to go, likewise the top secret's white mass), so only ratios against
    those anchors are free. Middle-column posteriors are constants, which is
    what keeps the objective linear.
    """
    n = prior.n
    if assignment.n != n:
        raise ValidationError(
            f"assignment is for n={assignment.n}, prior has n={n}"
        )
    w = assignment.exp_eps
    w_f = float(w)
    q = prior.q
    anchor_yellow = q[n - 1]
    anchor_white = 1 - q[0]
    m = len(assignment.columns)
    labels = [f"t{k + 2}" for k in range(m)]

    num_vars = (n - 1) + (n - 1) + m
    idx_yellow = list(range(n - 1))
    idx_white = list(range(n - 1, 2 * (n - 1)))
    idx_mid = list(range(2 * (n - 1), num_vars))
    var_names = (
        [f"ratio_t1_row{j + 1}" for j in range(n - 1)]
        + [f"ratio_t{m + 2}_row{j + 2}" for j in range(n - 1)]
        + [f"width_{labels[k]}_row{n}" for k in range(m)]
    )

    rel = _relative_widths(assignment)
    posts = tuple(
        assignment.column_posterior(prior, col) for col in assignment.columns
    )

    a_eq: list[list[float]] = []
    b_eq: list[float] = []
    for j in range(n):
        row = [0.0] * num_vars
        fixed = 0.0
        if j < n - 1:
            row[idx_yellow[j]] = float(anchor_yellow)
        else:
            fixed += float(anchor_yellow)
        if j >= 1:
            row[idx_white[j - 1]] = float(anchor_white)
        else:
            fixed += float(anchor_white)
        for k in range(m):
            row[idx_mid[k]] = rel[k][j]
        a_eq.append(row)
        b_eq.append(1.0 - fixed)
    for j in range(n):
        row = [0.0] * num_vars
        fixed = 0.0
        if j < n - 1:
            row[idx_yellow[j]] = float(anchor_yellow)
        else:
            fixed += float(anchor_yellow)
        for k, col in enumerate(assignment.columns):
            if j + 1 in assignment.yellow_rows(col):
                row[idx_mid[k]] = rel[k][j]
        a_eq.append(row)
        b_eq.append(float(q[j]) - fixed)

    a_ub: list[list[float]] = []
    b_ub: list[float] = []
    # The box on the ratio variables only controls each row against the
    # anchor row; for n >= 3 the budget must also hold between two non-anchor
    # rows of the same column.
    for block in (idx_yellow, idx_white):
        for j in block:
            for j2 in block:
                if j == j2:
                    continue
                row = [0.0] * num_vars
                row[j] = 1.0
                row[j2] = -w_f
                a_ub.append(row)
                b_ub.append(0.0)

    objective, offset = _objective(prior, u, rel, posts)
    inv_w = float(1 / w) if is_exact(w) else 1.0 / w_f
    bounds = [(inv_w, w_f)] * (2 * (n - 1)) + [(0.0, 1.0)] * m
    return LpProblem(
        prior=prior,
        assignment=assignment,
        var_names=tuple(var_names),
        objective=objective,
        offset=offset,
        a_eq=tuple(tuple(r) for r in a_eq),
        b_eq=tuple(b_eq),
        a_ub=tuple(tuple(r) for r in a_ub),
        b_ub=tuple(b_ub),
        bounds=tuple(bounds),
        column_posteriors=posts,
    )


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve one assembled LP with the dual-simplex backend.

    Infeasibility is an answer, not an error; anything else unexpected from
    the backend raises SolverError. scipy is imported here, on first use, so
    commands that never solve an LP do not pay for loading it.
    """
    from scipy.optimize import linprog

    c = -np.asarray(problem.objective)
    a_ub = np.asarray(problem.a_ub) if problem.a_ub else None
    b_ub = np.asarray(problem.b_ub) if problem.b_ub else None
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=np.asarray(problem.a_eq),
        b_eq=np.asarray(problem.b_eq),
        bounds=problem.bounds,
        method="highs-ds",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if result.status == 2:
        return LpSolution("infeasible", None, None, None)
    if result.status != 0:
        raise SolverError(f"LP solver failed: {result.message}")
    x = np.asarray(result.x)
    residual = float(
        np.max(np.abs(np.asarray(problem.a_eq) @ x - np.asarray(problem.b_eq)))
    )
    if a_ub is not None:
        residual = max(residual, float(np.max(np.clip(a_ub @ x - b_ub, 0.0, None))))
    for value, (lo, hi) in zip(x, problem.bounds):
        residual = max(residual, lo - value, value - hi)
    objective = float(np.dot(problem.objective, x)) + problem.offset
    return LpSolution("optimal", tuple(float(v) for v in x), objective, residual)


def _support(problem: LpProblem, solution: LpSolution) -> CutAssignment:
    """The columns with positive LP value, in the bank's (i, -b, -c) order."""
    bank = problem.assignment
    middle = solution.values[2 * (bank.n - 1) :]
    cols = tuple(col for col, x in zip(bank.columns, middle) if x > 0)
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
        _relative_widths(problem.assignment),
        problem.column_posteriors,
    )
    floor = solution.objective - problem.offset - CHECK_TOL
    held = replace(
        problem,
        objective=objective,
        offset=offset,
        a_ub=problem.a_ub + (tuple(-v for v in problem.objective),),
        b_ub=problem.b_ub + (-floor,),
    )
    return held, solve_lp(held)


def _structure_from_lp(
    problem: LpProblem, solution: LpSolution, chain: CutAssignment
) -> InfoStructure:
    """Rebuild the width grid of the chain's columns and restore exact row sums.

    Columns of the bank outside the chain carry no mass and are left out.
    The solver's 1e-9-level residuals would trip the structure's own
    normalization checks, so each row's yellow and white widths are rescaled
    to hit the prior's conditionals exactly.
    """
    prior = problem.prior
    n = prior.n
    m = len(chain.columns)
    values = solution.values
    middle = dict(zip(problem.assignment.columns, values[2 * (n - 1) :]))
    anchor_yellow = float(prior.q[n - 1])
    anchor_white = float(1 - prior.q[0])

    widths = [[0.0] * (m + 2) for _ in range(n)]
    yellow = [[False] * (m + 2) for _ in range(n)]
    for j in range(n):
        ratio = 1.0 if j == n - 1 else values[j]
        widths[j][0] = ratio * anchor_yellow
        yellow[j][0] = True
        ratio = 1.0 if j == 0 else values[(n - 1) + (j - 1)]
        widths[j][m + 1] = ratio * anchor_white
    for k, (col, rel) in enumerate(zip(chain.columns, _relative_widths(chain))):
        for j in range(n):
            widths[j][k + 1] = rel[j] * middle[col]
            yellow[j][k + 1] = (j + 1) in chain.yellow_rows(col)

    slack = max(CHECK_TOL, 10 * (solution.max_residual or 0.0))
    for j in range(n):
        for target, color in ((float(prior.q[j]), True), (float(1 - prior.q[j]), False)):
            total = sum(
                widths[j][t] for t in range(m + 2) if yellow[j][t] is color
            )
            if total > 0:
                scale = target / total
                for t in range(m + 2):
                    if yellow[j][t] is color:
                        widths[j][t] *= scale
            elif target > slack:
                raise SolverError("LP solution does not cover a row's required mass")

    signals = ("t1", *(f"t{k + 2}" for k in range(m)), f"t{m + 2}")
    return InfoStructure(
        prior=prior,
        signals=signals,
        widths=tuple(tuple(row) for row in widths),
        cells=tuple(
            tuple(1.0 if yellow[j][t] else 0.0 for t in range(m + 2))
            for j in range(n)
        ),
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
        SolverError: the LP backend failed, the LP was infeasible (seen
            only at extreme budgets with a conditional of 0 or 1), or the
            tie-break still left a non-chain.
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
    if solution.status == "optimal" and not _support(problem, solution).is_chain:
        problem, solution = _hold_and_maximize_quadratic(problem, solution)
    if solution.status != "optimal":
        raise SolverError(f"the LP over every cut column is {solution.status}")
    chain = _support(problem, solution)
    if not chain.is_chain:
        raise SolverError(f"LP optimum is not a chain of cuts: {chain.columns}")
    structure = compress(_structure_from_lp(problem, solution, chain))
    return GeneralSolution(
        structure=structure,
        assignment=chain,
        utility=float(expected_utility(structure, u)),
    )
