"""Inferentially private disclosure: optimal signals under posterior bounds.

The package models a binary payoff state and a finite secret, builds the
budget-optimal information structure (closed form for binary secrets, one
LP over every boundary-cut column otherwise), turns structures into signal
mechanisms and back, and verifies the geometric shape every optimum must
have. Brute-force oracles are included so the solvers never have to be
taken on faith.
"""

import importlib

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
    IpdError,
    MassNotNormalized,
    MeanMismatch,
    NotBinarySecret,
    SolverError,
    UnsupportedSize,
    ValidationError,
    ZeroMassContext,
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

__version__ = "0.1.0"

# The general solver and the oracles import numpy, which the binary-secret
# commands never need, so their modules load on the first lookup of one of
# these names (PEP 562), not with the package.
_LAZY = {
    "general": "general",
    "CutAssignment": "general",
    "CutColumn": "general",
    "GeneralSolution": "general",
    "LpProblem": "general",
    "LpSolution": "general",
    "assemble_lp": "general",
    "solve_general": "general",
    "solve_lp": "general",
    "oracle": "oracle",
    "OracleReport": "oracle",
    "binary_grid_oracle": "oracle",
    "pattern_lp_oracle": "oracle",
    "random_structure_oracle": "oracle",
}


def __getattr__(name: str):
    source = _LAZY.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{source}", __name__)
    return module if name == source else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
