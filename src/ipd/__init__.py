"""Inferentially private disclosure: optimal signals under posterior bounds.

The package models a binary payoff state and a finite secret, builds the
budget-optimal information structure (closed form for binary secrets, one
LP over every boundary-cut column otherwise), turns structures into signal
mechanisms and back, and verifies the geometric shape every optimum must
have. Brute-force oracles are included so the solvers never have to be
taken on faith.
"""

from .analysis import (
    BUILTIN_FAMILIES,
    BlackwellResult,
    GainReport,
    IpReport,
    RegionReport,
    UtilityFn,
    blackwell_dominates,
    check_ip,
    check_regions,
    expected_utility,
    parse_utility,
    utility_gain,
)
from .binary import (
    BinarySolution,
    GapInstance,
    Regime,
    RegimeTag,
    classify_regime,
    gap_instance,
    solve_binary,
    solve_perfect_privacy,
)
from .errors import (
    DegenerateRatio,
    IpdError,
    MassNotNormalized,
    MeanMismatch,
    NotBinarySecret,
    SolverError,
    UnsupportedSize,
    ValidationError,
    ZeroMassContext,
)
from .general import (
    CutAssignment,
    CutColumn,
    GeneralSolution,
    LpProblem,
    LpSolution,
    assemble_lp,
    solve_general,
    solve_lp,
)
from .model import (
    InfoStructure,
    Mechanism,
    PosteriorSummary,
    Prior,
    compress,
    load_prior,
    load_prior_joint,
    mechanism_to_structure,
    merge_signals,
    posterior_summary,
    sample_signal,
    split_signal,
    structure_to_mechanism,
)
from .numeric import CHECK_TOL, NORM_TOL, PATH_TOL, check_slack
from .oracle import (
    OracleReport,
    binary_grid_oracle,
    enumerate_assignments,
    naive_c_enumeration,
    random_structure_oracle,
)

__version__ = "0.1.0"
