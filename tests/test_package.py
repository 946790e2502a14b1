"""The package namespace: every public name resolves, eager or lazy."""

import importlib

import pytest

import ipd

# The names `ipd` exports, by the module that defines them. The general
# solver's and the oracles' names resolve on first access.
EXPORTS = {
    "analysis": (
        "BUILTIN_FAMILIES", "BlackwellResult", "GainReport", "IpReport", "RegionReport",
        "UtilityFn", "blackwell_dominates", "check_ip", "check_regions",
        "expected_utility", "parse_utility", "utility_gain",
    ),
    "binary": (
        "BinarySolution", "GapInstance", "Regime", "RegimeTag", "classify_regime",
        "gap_instance", "solve_binary", "solve_perfect_privacy",
    ),
    "errors": (
        "DegenerateRatio", "IpdError", "MassNotNormalized", "MeanMismatch",
        "NotBinarySecret", "SolverError", "UnsupportedSize", "ValidationError",
        "ZeroMassContext",
    ),
    "general": (
        "CutAssignment", "CutColumn", "GeneralSolution", "LpProblem", "LpSolution",
        "assemble_lp", "solve_general", "solve_lp",
    ),
    "model": (
        "InfoStructure", "Mechanism", "PosteriorSummary", "Prior", "compress",
        "load_prior", "load_prior_joint", "mechanism_to_structure", "merge_signals",
        "posterior_summary", "sample_signal", "split_signal", "structure_to_mechanism",
    ),
    "numeric": ("CHECK_TOL", "NORM_TOL", "PATH_TOL", "check_slack"),
    "oracle": (
        "OracleReport", "binary_grid_oracle", "pattern_lp_oracle",
        "random_structure_oracle",
    ),
}


@pytest.mark.parametrize("module_name", sorted(EXPORTS))
def test_every_exported_name_resolves_to_its_module(module_name):
    module = importlib.import_module(f"ipd.{module_name}")
    listed = dir(ipd)
    for name in EXPORTS[module_name]:
        assert hasattr(ipd, name), name
        assert getattr(ipd, name) is getattr(module, name), name
        assert name in listed, name


def test_lazy_modules_resolve_as_attributes():
    for name in ("general", "oracle"):
        module = importlib.import_module(f"ipd.{name}")
        # Through the hook itself: the import binds the module on the package.
        assert ipd.__getattr__(name) is module
        assert getattr(ipd, name) is module


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="solve_generall"):
        getattr(ipd, "solve_generall")
