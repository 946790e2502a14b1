"""LP-based optimal disclosure for any finite secret.

The optimum for n secrets lives on at most one all-yellow signal, one
all-white signal, and a chain of middle signals whose yellow region is a
top-aligned block of rows. A middle column is encoded by three cut indices
(i, b, c): rows 1..n+1-i are yellow, rows 1..b get the wide width (factor
e**eps) inside the yellow block, rows c..n get it below the block. Widths
within such a column are all tied to the bottom row's width, and its
posterior depends only on the prior and the cut, not on the widths.

A cut's rows follow from (i, b, c) by arithmetic, with no table: its
yellow block is its first n+1-i rows, and its widths over the bottom row's
width are three runs, rows 1..b wide, rows b+1..c-1 narrow and rows c..n
wide again. Only assemble_lp expands a cut, once, into its LP column; the
rebuilt structure is read back from those columns. All of it is plain
Python, so this module imports no numpy; numpy arrives only with scipy's
HiGHS bindings.

Every cut column meets the budget on its own, so one LP whose middle
variables are all the non-uniform cut columns at once admits only private
structures, and each chain's LP is that LP with some columns held at zero;
by the structure theorem the best chain, and so this LP, reaches the global
optimum. The two anchor columns need no budget rows either: each anchor row
is held as the narrowest row of its column, with every other row's ratio
to it boxed to [1, e**eps], so any two rows are within that factor; on
seeded corpora this box never lost utility against bounding every pair of
rows on its own. A piecewise-linear utility can leave the LP with an
optimal face that holds positive columns that are not a chain, so for a
utility that is not strictly convex the LP carries a second objective,
then, the quadratic utility, which the same linprog call maximizes over
that face; that lands on a chain that no other optimum Blackwell-dominates.

assemble_lp builds one bank's LP in a single pass over its columns,
straight in HiGHS's column-wise form: for each variable, the rows it enters
and its coefficients there, zeros left out, beside the 2n equality
right-hand sides, variable bounds, costs and then; every bound is finite.
solve_lp solves it. solve_general builds the bank, runs its one LP, reads
the chain and the rebuilt structure off the answer and the LP's columns at
once, and checks the compressed structure with check_ip at the budget asked
for: past eps 20, with a conditional of 0 or 1, or near a zero budget, an
answer within HiGHS's tolerances can still break the budget by about 1e-9
in log, and that is a SolverError.

linprog is the one LP backend, and minimizes an optional second objective
over the first one's optimal face, warm from the first one's answer. An LP
of at most four rows (the two-secret one) is made dense and goes to a
small bounded-variable simplex in pure Python, so a two-secret solve
imports neither numpy nor scipy, and every other LP goes to HiGHS's dual
simplex. HiGHS is called through the bindings scipy bundles, with the
model and tolerances scipy's linprog(method="highs-ds") would pass it but
none of that wrapper's per-call checks, and with an iteration cap of
SIMPLEX_ITERATION_LIMIT, past which the LP fails instead of running on.
Each thread keeps one HiGHS solver and reuses it for every LP it solves,
and presolve runs only on an LP whose widest bound exceeds PRESOLVE_ABOVE
(a budget past eps of about 9.2); below that it costs more than the
simplex and removes next to nothing. A column whose widest cell is within
HiGHS's feasibility tolerance is round-off and is left out of the chain.
solve_lp raises SolverError on any answer that is not optimal, and makes
the one check of an optimal answer that matters, holding its x to
FEASIBILITY_TOL on every row and bound.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple

from .analysis import UtilityFn, check_ip, expected_utility
from .binary import _width_ratios
from .errors import (
    SolverError,
    UnsupportedBudget,
    UnsupportedSize,
    ValidationError,
    require,
)
from .model import InfoStructure, Mechanism, Prior, compress, structure_to_mechanism
from .numeric import CHECK_TOL, MAX_SECRETS, Scalar, is_exact, log_of, ratio_bound
from .record import Record


class CutColumn(NamedTuple):
    """One middle column: yellow rows 1..n+1-i, wide rows 1..b and c..n."""

    i: int
    b: int
    c: int


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


@lru_cache(maxsize=16)
def _bank_columns(n: int, positive: bool) -> tuple[CutColumn, ...]:
    """Every cut column the single LP needs, sorted by (i, -b, -c).

    At a positive budget that is every column that is not width-uniform (a
    uniform column never binds the budget, so it never strictly helps). At a
    zero budget every column is uniform and all columns sharing an i are the
    same column, so one per i remains.
    """
    if not positive:
        return tuple(CutColumn(i, 0, n + 2 - i) for i in range(2, n + 1))
    # a cut has b + n + 1 - c wide rows
    return tuple(col for col in all_cuts(n) if 0 < col.b + n + 1 - col.c < n)


class CutAssignment(Record):
    """A bank of distinct in-range middle columns for an n-secret instance.

    Each cut (i, b, c) holds integers with 2 <= i <= n, 0 <= b <= n+1-i
    and n+2-i <= c <= n+1. The budget rides along, so the bank alone fixes
    each column's relative widths. A chain, the shape an optimal structure
    has, lists its columns in decreasing-posterior order, which the cut
    encoding makes equivalent to i non-decreasing with b and c
    non-increasing.
    """

    n: int
    columns: tuple[CutColumn, ...]
    exp_eps: Scalar

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValidationError("need at least 2 secrets")
        if not self.exp_eps >= 1:
            raise ValidationError("budget factor must be at least 1")
        cols = tuple(c if type(c) is CutColumn else CutColumn(*c) for c in self.columns)
        object.__setattr__(self, "columns", cols)
        n = self.n
        for col in cols:
            i, b, c = col
            if not (
                type(i) is type(b) is type(c) is int
                and 2 <= i <= n and 0 <= b <= n + 1 - i and n + 2 - i <= c <= n + 1
            ):
                raise ValidationError(f"cut {col} is not an integer cut in range for n={n}")
        if len(set(cols)) != len(cols):
            raise ValidationError("duplicate cut columns")

    @property
    def is_chain(self) -> bool:
        """True when each column may follow the one before: i never falls, b and c never rise."""
        return all(
            second.i >= first.i and second.b <= first.b and second.c <= first.c
            for first, second in zip(self.columns, self.columns[1:])
        )


class LpProblem(Record, eq=False):
    """The linear program of one bank of columns, in HiGHS's column-wise form.

    Variables: a width ratio per non-bottom row of the all-yellow column, a
    width ratio per non-top row of the all-white column, then the bottom-row
    width of each middle column. Maximize objective . x + offset subject to
    A x = rhs and col_lower <= x <= col_upper, every bound finite. A is kept
    by variable: variable j has the coefficients value[start[j]:start[j + 1]]
    in the rows index[start[j]:start[j + 1]], rows ascending, zeros left
    out. Its 2n rows are equalities: each secret's total width, then each
    secret's yellow width. then, when not None, is a second objective that
    solve_lp maximizes over the first one's optimal face (see linprog).
    column_posteriors holds P(Y=1 | column) per middle column: lowest-terms
    Fractions when the prior's masses and the budget are exact (int or
    Fraction), correctly rounded floats otherwise. Problems compare by identity.
    """

    prior: Prior
    assignment: CutAssignment
    objective: list[float]
    offset: float
    start: list[int]
    index: list[int]
    value: list[float]
    rhs: list[float]
    col_lower: list[float]
    col_upper: list[float]
    column_posteriors: tuple[Scalar, ...]
    then: list[float] | None


class LpSolution(Record, eq=False):
    """An optimal answer: linprog's x, objective . x + offset, its worst miss."""

    values: list[float]
    objective: float
    max_residual: float


# The tie-break utility: strictly convex, so its optimum over a face is a
# chain that no other point of the face Blackwell-dominates.
_QUADRATIC = UtilityFn("quadratic")


def assemble_lp(prior: Prior, u: UtilityFn, assignment: CutAssignment) -> LpProblem:
    """Build the LP for one bank of columns; the budget is the bank's own.

    The all-yellow column's bottom row and the all-white column's top row
    are fixed by the prior (the bottom secret's yellow mass has nowhere else
    to go, likewise the top secret's white mass), so only ratios against
    those anchors are free. Each ratio is boxed to [1, w]: an anchor row is
    the narrowest of its column, so every two rows of an anchor column are
    within the factor w. The anchor columns earn u(1) and u(0) per unit of
    mass, and their anchor rows make up the offset. The first n rows fix
    each secret's total width, the next n its yellow width.

    Each middle column's posterior is its yellow block's prior mass over
    the column's, each row's mass scaled by its width factor; fixed by the
    cut, it keeps the objective linear. Every column's posterior is four
    lookups in integer prefix sums of the masses (_cut_posteriors): a
    lowest-terms Fraction, whose u is scored on its integers
    (UtilityFn.float_at), when the prior and w are exact, and a correctly
    rounded float otherwise. One pass over the bank then gives each middle
    column
    - its mass per unit of bottom-row width (an n-term float sum), and u at
      the posterior times that mass as its objective coefficient;
    - its matrix entries: its relative widths (its row widths over its
      bottom row's width, the three runs of its cut) in every total row and
      in the yellow rows of its block;
    - for a utility that is not strictly convex (abs, rewards), the same
      coefficient for the quadratic utility, in then.
    """
    if assignment.n != prior.n:
        raise ValidationError(
            f"assignment is for n={assignment.n}, prior has n={prior.n}"
        )
    n, w = prior.n, assignment.exp_eps
    p = [float(x) for x in prior.p]
    q = [float(x) for x in prior.q]
    anchor_yellow = q[n - 1]
    anchor_white = float(1 - prior.q[0])
    ratios = 2 * (n - 1)
    utilities = [u] if u.family in ("quadratic", "negentropy") else [u, _QUADRATIC]
    # each utility's u(1) times the all-yellow anchor, u(0) times the all-white one
    anchors = [(float(f(1)) * anchor_yellow, float(f(0)) * anchor_white) for f in utilities]
    costs = [[top * x for x in p[:-1]] + [bottom * x for x in p[1:]] for top, bottom in anchors]

    # the all-yellow column's rows 1..n-1 (total and yellow), the all-white
    # column's rows 2..n (total only); an anchor of 0 leaves its ratios empty
    anchor_rows = [((j, n + j), anchor_yellow) for j in range(n - 1)]
    anchor_rows += [((1 + j,), anchor_white) for j in range(n - 1)]
    start, index, value = [0], [], []
    for rows, anchor in anchor_rows:
        if anchor != 0:
            index += rows
            value += [anchor] * len(rows)
        start.append(len(index))
    posts = _cut_posteriors(prior.p, w, assignment.columns)
    # a bottom row that is narrow (c > n) makes the runs w, 1, w, a wide one
    # 1, 1/w, 1; 1/w is rounded once when w is exact
    w_float, inv_w = float(w), float(1 / w)
    for (i, b, c), post in zip(assignment.columns, posts):
        lo, hi = (1.0, w_float) if c > n else (inv_w, 1.0)
        rel = [hi] * b + [lo] * (c - 1 - b) + [hi] * (n + 1 - c)
        block = n + 1 - i
        mass = sum(map(operator.mul, rel, p))
        for f, cost in zip(utilities, costs):
            cost.append(f.float_at(post) * mass)
        index += range(n + block)
        value += rel  # relative widths are never zero
        value += rel[:block]
        start.append(len(index))

    # each row's total is 1 and its yellow width q, less what an anchor holds
    # (the bottom row's yellow width is all anchor)
    rhs = [1.0 - anchor_white, *[1.0] * (n - 2), 1.0 - anchor_yellow, *q[:-1], 0.0]
    m = len(assignment.columns)
    top, bottom = anchors[0]
    objective, *then = costs
    return LpProblem(
        prior, assignment, objective, top * p[-1] + bottom * p[0], start, index, value,
        rhs, [1.0] * ratios + [0.0] * m, [float(w)] * ratios + [1.0] * m, posts,
        then[0] if then else None,
    )


def _cut_posteriors(
    masses: tuple[Scalar, ...], w: Scalar, columns: tuple[CutColumn, ...]
) -> tuple[Scalar, ...]:
    """P(Y=1 | column) per cut: its yellow block's mass over the column's.

    Each row's mass is scaled by its width factor, w on rows 1..b and c..n,
    1 between. Every mass and w is read as the ratio of integers it is, a
    float exactly too (a dyadic rational). Over their common denominator the
    masses are integers P_1..P_n with prefix sums S, and with w = a/d a cut
    (i, b, c), whose block is its first n+1-i rows, holds
    yellow = a S[b] + d (S[block] - S[b]) and total = yellow
    + d (S[c-1] - S[block]) + a (S[n] - S[c-1]) of the scaled mass. Its
    posterior is the lowest-terms Fraction(yellow, total) when every mass
    and w are exact (int or Fraction), and the correctly rounded float
    yellow / total otherwise.
    """
    n = len(masses)
    exact = is_exact(w) and all(map(is_exact, masses))
    ratios = [x.as_integer_ratio() for x in masses]
    common = math.lcm(*(y for _, y in ratios))
    sums = list(accumulate((x * (common // y) for x, y in ratios), initial=0))
    a, d = w.as_integer_ratio()
    wide, narrow = [a * s for s in sums], [d * s for s in sums]
    posts = []
    for i, b, c in columns:
        block = n + 1 - i
        yellow = wide[b] + narrow[block] - narrow[b]
        total = yellow + narrow[c - 1] - narrow[block] + wide[n] - wide[c - 1]
        posts.append(Fraction(yellow, total) if exact else yellow / total)
    return tuple(posts)


class LinprogResult(NamedTuple):
    """linprog's answer: scipy's status code, x when optimal, and a message."""

    status: int  # 0 optimal, 2 infeasible, anything else a failure
    x: list[float] | None
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
# HiGHS's primal and dual feasibility tolerance; a column no wider than it
# is round-off (_chain_and_structure), and a reduced cost no larger than it
# leaves its variable free on the optimal face (linprog's then).
HIGHS_TOL = 1e-10
# HiGHS presolves an LP only when a variable bound exceeds this. Every LP
# assemble_lp builds has the budget factor w as its widest bound, and w is
# 1e4 at eps of about 9.2. Below that, presolve removes next to nothing from
# these LPs yet costs more than the dual simplex, and both ways reach the same
# optimum to 1e-11. Past it presolve pays: on 46 seeded LPs at eps 26, each
# with a conditional of 0 or 1, the dual simplex alone failed 12 that it
# solved after presolve, so a wide LP is solved as scipy's linprog would.
PRESOLVE_ABOVE = 1e4
# The most dual simplex iterations HiGHS may take on one LP; past it the LP
# fails with a SolverError instead of running on. Seeded solves at eps 0.3
# to 30 took at most 8, 18, 50 and 117 iterations at n = 3, 5, 10 and 20,
# yet an n=6 LP at eps 23 once ran on for minutes, when the LP still held
# the budget between each pair of anchor rows with a row of its own.
SIMPLEX_ITERATION_LIMIT = 10_000
# HiGHS's infinite_bound: a bound at or past it is read as infinite. Every LP
# assemble_lp builds has the budget factor w as its widest bound and its
# largest matrix entry, so a w this large (eps past ln(1e20), about 46.05,
# reached only with a conditional of 0 or 1) is refused with
# UnsupportedBudget, and HiGHS's large_matrix_value (1e15 by default, which
# refused every w past eps 34.54) is raised to it. Its small_matrix_value
# stays at 1e-9: HiGHS drops smaller entries, which here can be narrow
# relative widths 1/w (past eps 20.7) and anchors q_n or 1 - q_1 below 1e-9.
HIGHS_INFINITE = 1e20


def linprog(
    c: list[float],
    start: list[int],
    index: list[int],
    value: list[float],
    rhs: list[float],
    col_lower: list[float],
    col_upper: list[float],
    then: list[float] | None = None,
) -> LinprogResult:
    """Minimize c . x subject to A x = rhs and col_lower <= x <= col_upper.

    solve_lp's backend; the pattern-LP oracle goes through scipy's own
    linprog instead, so that it stays an independent check of this path.
    A is given by column as in LpProblem, and every bound is finite. With
    then, every variable whose reduced cost at the optimum exceeds
    HIGHS_TOL in magnitude is held at its bound, which leaves the optimal
    face, and then . x is minimized over it, warm from the first optimum.
    The result carries scipy's status (0 optimal, 2 infeasible), x and a
    message. An LP of at most four rows (of the solver's LPs, the
    two-secret one) is made dense for a bounded-variable simplex in pure
    Python, whose answer is taken only when it passes the GUARD_TOL checks.
    Every other LP, and every one the simplex fails or the guard rejects,
    goes to HiGHS's dual simplex through _highs, on this thread's solver and
    with presolve only past PRESOLVE_ABOVE; scipy is imported then, on first
    use, so a two-secret solve normally never loads it.
    """
    if len(rhs) <= 4:
        a = [[0.0] * len(c) for _ in rhs]
        for j, (s, e) in enumerate(zip(start, start[1:])):
            for row, v in zip(index[s:e], value[s:e]):
                a[row][j] = v
        x = _bounded_simplex(c, a, rhs, col_lower, col_upper, then)
        if x is not None:
            x = _guarded(x, a, rhs, col_lower, col_upper)
        if x is not None:
            return LinprogResult(0, x, "optimal (bounded simplex)")
    return _highs(c, start, index, value, rhs, col_lower, col_upper, then=then)


def _highs(
    c: list[float],
    start: list[int],
    index: list[int],
    value: list[float],
    rhs: list[float],
    col_lower: list[float],
    col_upper: list[float],
    then: list[float] | None = None,
) -> LinprogResult:
    """linprog's LP on HiGHS's dual simplex, through scipy's HiGHS bindings.

    The lists go to HiGHS as they are; they are the model scipy's
    linprog(method="highs-ds") would hand HiGHS for the same LP with its
    rows given as A_eq, without that wrapper's input checks and result
    post-processing. It goes to this thread's solver (_thread_highs), whose
    solve state is cleared first, with presolve on only when a bound
    exceeds PRESOLVE_ABOVE, so past that bound it is the call scipy makes.
    With then, the optimum's reduced costs (col_dual) pick the variables
    held at their bounds, and the same solver re-runs from its optimal
    basis with those bounds and the costs then. An optimal model gives
    status 0 and HiGHS's x, an infeasible one status 2; any other model
    status (the iteration limit included), or an error from HiGHS, gives
    status 4. solve_lp checks the x. Without scipy it raises
    MissingDependency, and on a bound of HIGHS_INFINITE or more, which
    HiGHS would read as infinite, UnsupportedBudget.
    """
    highs = require(_HIGHS_MODULE)
    widest = max(map(abs, col_lower + col_upper), default=0.0)
    if widest >= HIGHS_INFINITE:
        raise UnsupportedBudget(
            f"the LP's widest bound {widest:.3g} is past {HIGHS_INFINITE:.0e}, which "
            f"HiGHS reads as infinite; solve at eps {math.log(HIGHS_INFINITE):.2f} or below"
        )

    lp = highs.HighsLp()
    matrix = lp.a_matrix_
    matrix.format_ = highs.MatrixFormat.kColwise
    lp.num_col_ = matrix.num_col_ = len(c)
    lp.num_row_ = matrix.num_row_ = len(rhs)
    matrix.start_, matrix.index_, matrix.value_ = start, index, value
    lp.col_cost_ = c
    lp.col_lower_, lp.col_upper_ = col_lower, col_upper
    lp.row_lower_ = lp.row_upper_ = rhs
    presolve = "on" if widest > PRESOLVE_ABOVE else "off"

    solver = _thread_highs()
    error = highs.HighsStatus.kError
    optimal = highs.HighsModelStatus.kOptimal
    ran = (
        solver.setOptionValue("presolve", presolve) != error
        and solver.clearSolver() != error
        and solver.passModel(lp) != error
        and solver.run() != error
    )
    if ran and then is not None and solver.getModelStatus() == optimal:
        reduced = solver.getSolution().col_dual
        held = [j for j, d in enumerate(reduced) if abs(d) > HIGHS_TOL]
        at = [col_lower[j] if reduced[j] > 0 else col_upper[j] for j in held]
        ran = (
            solver.changeColsBounds(len(held), held, at, at) != error
            and solver.changeColsCost(len(then), list(range(len(then))), then) != error
            and solver.run() != error
        )
    status = solver.getModelStatus()
    message = f"HiGHS model status {solver.modelStatusToString(status)}"
    if not ran:
        return LinprogResult(4, None, f"HiGHS could not load or run the LP; {message}")
    if status == optimal:
        return LinprogResult(0, solver.getSolution().col_value, message)
    if status == highs.HighsModelStatus.kInfeasible:
        return LinprogResult(2, None, message)
    return LinprogResult(4, None, message)


_HIGHS_MODULE = "scipy.optimize._highspy._core"  # scipy's HiGHS bindings
_thread = threading.local()


def _thread_highs():
    """This thread's HiGHS solver, made and given _highs_options() on first use.

    A solver holds its model and solve state, so threads do not share one;
    each _highs call clears the solve state before passing its model.
    """
    solver = getattr(_thread, "highs", None)
    if solver is None:
        highs = require(_HIGHS_MODULE)
        solver = highs._Highs()
        if solver.passOptions(_highs_options()) == highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected the solver options")
        _thread.highs = solver
    return solver


def _highs_options():
    """The options scipy's linprog(method="highs-ds") sets, presolve aside.

    Primal and dual feasibility tolerances HIGHS_TOL, the dual simplex, no
    output; beyond scipy's, the cap SIMPLEX_ITERATION_LIMIT. _highs sets
    presolve per LP.
    """
    highs = require(_HIGHS_MODULE)
    options = highs.HighsOptions()
    options.solver = "simplex"
    strategy = highs.simplex_constants.SimplexStrategy
    options.simplex_strategy = strategy.kSimplexStrategyDual
    options.primal_feasibility_tolerance = HIGHS_TOL
    options.dual_feasibility_tolerance = HIGHS_TOL
    options.simplex_iteration_limit = SIMPLEX_ITERATION_LIMIT
    options.large_matrix_value = HIGHS_INFINITE
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
    then: list[float] | None = None,
) -> list[float] | None:
    """Minimize c . x subject to a x = b and lo <= x <= hi, all bounds finite.

    A dense tableau simplex whose nonbasic variables sit at one of their
    bounds (Dantzig 1955), so bounds need no rows. Each variable is first
    scaled by the larger magnitude of its bounds, so no range is wider than
    1 and a width ratio bounded by e**eps moves no further, in the
    tolerances' eyes, than a column weight bounded by 1. Phase 1 starts
    every variable at its lower bound, gives each row an artificial
    variable holding its residual, and drives their sum to zero; phase 2
    fixes the artificials at zero and minimizes c. With then, a third phase
    holds every variable whose scaled reduced cost exceeds HIGHS_TOL in
    magnitude where it sits and minimizes then from phase 2's tableau.
    Returns x, or None when phase 1 leaves a residual above GUARD_TOL or a
    phase stops early.
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
    if _pivot_to_optimum(tableau, basis, x, [0.0] * nv + [1.0] * m, lo, hi) is None:
        return None
    if any(v > GUARD_TOL for v in x[nv:]):
        return None
    hi[nv:] = [0.0] * m  # the artificials stay at zero from here on
    reduced = _pivot_to_optimum(tableau, basis, x, [*c, *[0.0] * m], lo, hi)
    if reduced is None:
        return None
    if then is not None:
        for j, d in enumerate(reduced):
            if abs(d) > HIGHS_TOL:
                lo[j] = hi[j] = x[j]
        cost = [*(tj * s for tj, s in zip(then, scale)), *[0.0] * m]
        if _pivot_to_optimum(tableau, basis, x, cost, lo, hi) is None:
            return None
    return [xj * s for xj, s in zip(x, scale)]


def _pivot_to_optimum(
    tableau: list[list[float]],
    basis: list[int],
    x: list[float],
    cost: list[float],
    lo: list[float],
    hi: list[float],
) -> list[float] | None:
    """Take simplex steps, in place, until no step lowers cost . x.

    The entering variable has the reduced cost of largest magnitude
    (Dantzig's rule), or the lowest index right after a degenerate step
    (Bland's rule, which cannot cycle). It moves until a basic variable
    reaches a bound and leaves the basis there, or until it reaches its own
    other bound. Returns the final reduced costs, or None on an unbounded
    ray or at the step cap.
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
            return reduced
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
            return None
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
    return None


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve one assembled LP through linprog.

    The problem's then, when not None, is maximized over the optimal face
    of its objective (see linprog); the reported objective is still the
    first. Any answer but an optimal one, infeasible included, raises
    SolverError with the backend's message. So does an optimal x that is
    NaN or misses a bound or a row by more than FEASIBILITY_TOL, the check
    scipy's linprog makes on HiGHS's answer. linprog is looked up as a
    module global at call time, so a replacement bound here (a test's fake,
    a tracer's wrapper) sees every solve.
    """
    start, index, value = problem.start, problem.index, problem.value
    result = linprog(
        [-v for v in problem.objective],
        start,
        index,
        value,
        problem.rhs,
        problem.col_lower,
        problem.col_upper,
        then=None if problem.then is None else [-v for v in problem.then],
    )
    if result.status != 0:
        raise SolverError(f"LP solver failed: {result.message}")
    x = list(result.x)
    activity = [0.0] * len(problem.rhs)
    for xj, s, e in zip(x, start, start[1:]):
        if xj:  # most columns sit at zero
            for row, v in zip(index[s:e], value[s:e]):
                activity[row] += v * xj
    misses = [abs(v - b) for v, b in zip(activity, problem.rhs)]
    misses += [
        max(low - v, v - high)
        for low, v, high in zip(problem.col_lower, x, problem.col_upper)
    ]
    residual = math.nan if any(map(math.isnan, misses)) else max(misses)
    if not residual <= FEASIBILITY_TOL:  # a NaN fails too
        raise SolverError(
            f"LP solver answer misses its rows or bounds by {residual:.3g}, "
            f"more than {FEASIBILITY_TOL:.3g}"
        )
    objective = sum(map(operator.mul, problem.objective, x)) + problem.offset
    return LpSolution(x, objective, residual)


def _chain_and_structure(
    problem: LpProblem, solution: LpSolution
) -> tuple[CutAssignment, InfoStructure]:
    """The chain of the LP's answer, and its width grid rescaled to exact row sums.

    Both are read from the LP's own columns: middle variable j's entries,
    value[start[j]:start[j + 1]], are its n relative widths in the total
    rows (never zero, so all present), then the same widths in the yellow
    rows of its block, so its block holds the entry count less n rows. A
    bank column is kept when its widest cell, its LP value times its
    largest relative width, exceeds HIGHS_TOL. One no wider than HiGHS's
    feasibility tolerance is round-off the LP cannot tell from zero, such
    as a degenerate basic column that HiGHS leaves at 1e-17 to 1e-13, and
    is left out of both. The kept columns, in the bank's (i, -b, -c) order,
    must be a chain, or SolverError is raised. The structure's columns are
    the all-yellow column, the chain's columns and the all-white column.
    """
    prior, bank, x = problem.prior, problem.assignment, solution.values
    n, ratios = prior.n, 2 * (prior.n - 1)
    start, value = problem.start, problem.value
    kept = []  # (cut, LP value, relative widths, block length)
    for col, v, s, e in zip(bank.columns, x[ratios:], start[ratios:], start[ratios + 1 :]):
        rel = value[s : s + n]
        if v * max(rel) > HIGHS_TOL:
            kept.append((col, v, rel, e - s - n))
    chain = CutAssignment(n, tuple(col for col, _, _, _ in kept), bank.exp_eps)
    if not chain.is_chain:
        raise SolverError(f"LP optimum is not a chain of cuts: {chain.columns}")
    # (columns x rows)
    anchor_yellow, anchor_white = float(prior.q[n - 1]), float(1 - prior.q[0])
    widths = [
        [*(v * anchor_yellow for v in x[: n - 1]), anchor_yellow],
        *([r * v for r in rel] for _, v, rel, _ in kept),
        [anchor_white, *(v * anchor_white for v in x[n - 1 : ratios])],
    ]
    yellow = [
        [True] * n,
        *([True] * block + [False] * (n - block) for _, _, _, block in kept),
        [False] * n,
    ]
    return chain, _rescaled_structure(prior, widths, yellow, solution.max_residual)


def _rescaled_structure(
    prior: Prior, widths: list[list[float]], yellow: list[list[bool]], residual: float
) -> InfoStructure:
    """The structure of (columns x rows) LP widths, rescaled to exact row sums.

    An LP's 1e-9-level residuals would trip the structure's normalization
    checks, so each row's yellow and white widths are rescaled to the
    prior's shares; a share above max(CHECK_TOL, 10 * residual) that no
    column covers is a SolverError. The signals are t1, t2, ... in order.
    """
    rows = [*zip(*widths)]  # (rows x columns), as the structure keeps them
    marks = [*zip(*yellow)]
    # Per secret, its yellow and then its white widths summed in column
    # order, each against the share of the prior (q, then 1 - q) it must hold.
    sums = [
        (target, total)
        for row, mark, q in zip(rows, marks, prior.q)
        for target, total in (
            (float(q), sum(w for w, y in zip(row, mark) if y)),
            (float(1 - q), sum(w for w, y in zip(row, mark) if not y)),
        )
    ]
    slack = max(CHECK_TOL, 10 * residual)
    if any(total <= 0 and target > slack for target, total in sums):
        raise SolverError("LP solution does not cover a row's required mass")
    scale = [target / total if total > 0 else 1.0 for target, total in sums]
    return InfoStructure(
        prior=prior,
        signals=tuple(f"t{k + 1}" for k in range(len(widths))),
        widths=tuple(
            tuple(w * (on if y else off) for w, y in zip(row, mark))
            for row, mark, on, off in zip(rows, marks, scale[0::2], scale[1::2])
        ),
        cells=tuple(tuple(1.0 if y else 0.0 for y in mark) for mark in marks),
    )


class GeneralSolution(Record):
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

    Solves one LP over every non-uniform cut column. A utility that is not
    strictly convex (abs, rewards) can tie several chains and non-chains on
    the optimal face, so for it the same linprog call goes on to maximize
    the quadratic utility over that face, which lands on a chain no other
    optimum Blackwell-dominates. A budget past the point where full
    disclosure is private solves at that point, with the same optimum. The
    reported assignment is the chain of those columns sorted by
    (i, -b, -c); the structure is rebuilt from those columns alone and
    compressed; its mechanism is derived only when read.

    Raises:
        UnsupportedSize: n exceeds max_secrets (the LP has O(n**3)
            columns).
        SolverError: the LP's answer was not optimal (infeasible is seen
            only at extreme budgets with a conditional of 0 or 1) or missed
            its rows or bounds, or its support is not a chain, or the
            compressed structure fails check_ip at the budget asked for
            (seen past eps 20 with a conditional of 0 or 1). On three or
            more secrets each is also seen near a zero budget and with a
            secret of near-zero mass.
        UnsupportedBudget: a SolverError for an LP that would go to HiGHS
            with a budget factor of 1e20 or more (eps past 46.05, with a
            conditional of 0 or 1), which HiGHS reads as infinite.
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
    bound = ratio_bound(eps, exp_eps)
    w = min(bound, max(_width_ratios(prior.q[0], prior.q[-1])))
    problem = assemble_lp(prior, u, CutAssignment(prior.n, _bank_columns(prior.n, w != 1), w))
    chain, structure = _chain_and_structure(problem, solve_lp(problem))
    structure = compress(structure)
    # Rescaling rows whose LP residual is within HiGHS's tolerance can still
    # push a width ratio past the check slack at large budgets.
    report = check_ip(structure, exp_eps=bound)
    if not report.satisfied:
        excess = report.max_log_ratio - log_of(bound)
        raise SolverError(
            f"LP answer is not private: a log width ratio exceeds eps by {excess:.3g}"
        )
    return GeneralSolution(structure, chain, float(expected_utility(structure, u)))
