"""The package namespace: every public name resolves, eager or lazy."""

import importlib
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import ipd
import ipd.general
from ipd import MissingDependency, UtilityFn, load_prior
from ipd.errors import require

from conftest import hide_packages

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
        "IpdError", "MassNotNormalized", "MeanMismatch", "MissingDependency",
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


class TestMissingDependency:
    """Every place that imports numpy or scipy names the missing package."""

    BINARY = [(Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 2), Fraction(1, 4))]
    TERNARY = [(Fraction(1, 3), Fraction(9, 10)), (Fraction(1, 3), Fraction(1, 2)),
               (Fraction(1, 3), Fraction(1, 10))]

    def test_require_returns_the_module_or_names_the_package(self, monkeypatch):
        assert require("fractions").Fraction is Fraction
        hide_packages(monkeypatch, "scipy")
        with pytest.raises(MissingDependency, match="needs scipy") as caught:
            require("scipy.optimize._highspy._core")
        assert "pip install ipd[lp]" in str(caught.value)
        assert isinstance(caught.value, ipd.IpdError)
        assert isinstance(caught.value.__cause__, ImportError)

    def test_highs_without_scipy(self, monkeypatch):
        hide_packages(monkeypatch, "scipy")
        monkeypatch.setattr(ipd.general, "_thread", threading.local())
        with pytest.raises(MissingDependency, match="needs scipy"):
            ipd.general._thread_highs()
        with pytest.raises(MissingDependency, match="needs scipy"):
            ipd.solve_general(load_prior(self.TERNARY), u=UtilityFn("abs"),
                              exp_eps=Fraction(2))

    def test_two_secret_solve_needs_no_scipy(self, monkeypatch):
        hide_packages(monkeypatch, "numpy", "scipy")
        solution = ipd.solve_general(load_prior(self.BINARY), u=UtilityFn("abs"),
                                     exp_eps=Fraction(2))
        assert solution.utility == pytest.approx(5 / 6, abs=1e-7)

    def test_random_oracle_without_numpy(self, monkeypatch):
        hide_packages(monkeypatch, "numpy")
        with pytest.raises(MissingDependency, match="needs numpy"):
            ipd.random_structure_oracle(load_prior(self.BINARY), u=UtilityFn("abs"),
                                        seed=1, exp_eps=Fraction(2))

    @pytest.mark.parametrize("package", ["numpy", "scipy"])
    def test_pattern_oracle_without_numpy_or_scipy(self, monkeypatch, package):
        # a two-secret pattern LP (4 rows) goes to the in-package simplex; a
        # three-secret one needs HiGHS, whatever the solver side needs. scipy
        # is imported afresh, so that without numpy its import fails.
        for name in [m for m in sys.modules if m.partition(".")[0] == "scipy"]:
            monkeypatch.delitem(sys.modules, name)
        hide_packages(monkeypatch, package)
        report = ipd.pattern_lp_oracle(load_prior(self.BINARY), u=UtilityFn("abs"),
                                       exp_eps=Fraction(2))
        assert report.best_utility == pytest.approx(5 / 6, abs=1e-9)

        def no_information(prior, u, w):  # needs neither package
            return ipd.InfoStructure(prior, ("t1",), ((1,),) * prior.n,
                                     tuple((q,) for q in prior.q))

        monkeypatch.setattr("ipd.oracle._solver_structure", no_information)
        with pytest.raises(MissingDependency, match=f"needs {package}"):
            ipd.pattern_lp_oracle(load_prior(self.TERNARY), u=UtilityFn("abs"),
                                  exp_eps=Fraction(2))

    def test_array_utility_without_numpy(self, monkeypatch):
        q = np.array([0.25, 0.5])
        hide_packages(monkeypatch, "numpy")
        assert UtilityFn("abs")(Fraction(1, 4)) == Fraction(1, 2)  # scalars need none
        with pytest.raises(MissingDependency, match="needs numpy"):
            UtilityFn("abs")(q)
