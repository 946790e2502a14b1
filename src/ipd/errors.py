"""Exception hierarchy for the ipd package.

Every error raised deliberately by this package derives from IpdError, so
callers can catch one type at the boundary. Input-shaped problems (bad
probabilities, malformed tables) additionally derive from ValueError via
ValidationError, which keeps ``except ValueError`` workflows functional.
numpy and scipy are optional (the ``lp`` extra): ``require`` imports them
where they are used and turns their absence into MissingDependency.
"""

from __future__ import annotations

import importlib


class IpdError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(IpdError, ValueError):
    """Malformed or inconsistent input data."""


class UnknownLabel(ValidationError, KeyError):
    """A secret or signal label that the object does not have."""

    __str__ = ValidationError.__str__  # KeyError's own would quote the message


class NonPositiveMass(ValidationError):
    """A secret was given zero or negative marginal mass."""


class MassNotNormalized(ValidationError):
    """A probability vector does not sum to one within tolerance."""


class ConditionalOutOfRange(ValidationError):
    """A conditional probability lies outside [0, 1]."""


class DegenerateConditional(ValidationError):
    """Cell posteriors are inconsistent with a conditional of 0 or 1."""


class BadWeights(ValidationError):
    """Split weights must be positive and sum to one."""


class NotEquivalentSignals(IpdError):
    """Signals in a merge group do not share posteriors within tolerance."""


class ZeroMassContext(IpdError):
    """Sampling was requested for a (secret, state) pair of probability zero."""


class MeanMismatch(IpdError):
    """Two posterior summaries disagree on the prior state probability."""


class NotBinarySecret(IpdError):
    """A binary-secret operation was called with a different support size."""


class UnsupportedSize(IpdError):
    """The secret support exceeds the configured size cap."""


class SolverError(IpdError):
    """The LP backend failed, or its answer is not a valid optimal structure."""


class UnsupportedBudget(SolverError):
    """The LP would carry a budget factor its backend reads as infinite."""


class MissingDependency(IpdError):
    """An optional package that the operation needs cannot be imported."""


def require(module: str):
    """Import and return module, raising MissingDependency if it cannot be.

    The error names the top-level package that failed to import, which is
    not always the one asked for: scipy without numpy names numpy. It also
    names the extra that installs both.
    """
    try:
        return importlib.import_module(module)
    except ImportError as exc:
        package = (exc.name or module).partition(".")[0]
        raise MissingDependency(
            f"this operation needs {package}, which cannot be imported ({exc}); "
            "pip install ipd[lp] installs numpy and scipy"
        ) from exc
