"""Numeric conventions shared across the package.

Two arithmetic modes coexist. In float mode, probabilities are Python floats
and every verification applies a small slack. In exact mode, inputs are
``fractions.Fraction`` (ints are promoted on the way in) and the closed-form
solvers produce exact rationals; verifications then compare exactly. The mode
is a property of the values, not a global switch: arithmetic here and in the
solvers is written so that Fractions in give Fractions out.

Privacy budgets follow one calling convention everywhere: pass ``eps`` (nats,
float) or ``exp_eps`` (the width-ratio bound e**eps itself, possibly an exact
Fraction), never both. ``ratio_bound`` resolves the pair. Exact mode for a
budget means passing ``exp_eps`` exactly, e.g. ``Fraction(2)`` for eps=ln 2.

Tolerance ladder:

* ``NORM_TOL`` (1e-12): normalization of probability vectors, row sums, and
  algebraic round-trips.
* ``CHECK_TOL`` (1e-9): verification slack for privacy ratios, binding and
  grouping decisions, and LP residuals; overridable through the
  ``IPD_TOLERANCE`` environment variable (read per call).
* ``PATH_TOL`` (1e-7): agreement between independent solution paths.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction
from typing import Union

from .errors import ValidationError

Scalar = Union[int, float, Fraction]

NORM_TOL = 1e-12
CHECK_TOL = 1e-9
PATH_TOL = 1e-7

# Default secret cap of the general solver, whose dense LP has O(n**3)
# columns and O(n**2) rows. It lives here, not in general.py, so the CLI
# parser can show it as a default without importing the general solver.
MAX_SECRETS = 20

_TOLERANCE_ENV = "IPD_TOLERANCE"
MAX_EPS = math.log(sys.float_info.max)  # beyond it e**eps overflows a float
# The largest float as an int, so an exact bound is checked against it
# without turning the float into a 1024-bit Fraction on every call.
_FLOAT_MAX = int(sys.float_info.max)


def check_slack() -> float:
    """Return the verification slack, honoring the IPD_TOLERANCE env var."""
    raw = os.environ.get(_TOLERANCE_ENV)
    if raw is None:
        return CHECK_TOL
    message = f"{_TOLERANCE_ENV} must be a finite positive number, got {raw!r}"
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(message) from None
    if not 0.0 < value < math.inf:
        raise ValidationError(message)
    return value


def exactify(x: Scalar) -> Scalar:
    """Promote ints to Fraction so integer division cannot fall back to float.

    Finite floats and Fractions pass through unchanged. Booleans are rejected
    (a True/False probability is always a bug at the call site), and so are
    NaN and infinities, which would slip past every range check.
    """
    if isinstance(x, bool):
        raise TypeError("probabilities must be numbers, not booleans")
    if isinstance(x, int):
        return Fraction(x)
    if not isinstance(x, (float, Fraction)):
        raise TypeError(f"expected a real number, got {type(x).__name__}")
    if isinstance(x, float) and not math.isfinite(x):
        raise ValidationError(f"expected a finite number, got {x!r}")
    return x


def typed_key(values) -> tuple:
    """Values as a hashable key that also tells their types apart.

    Equality alone treats Fraction(1, 2) and 0.5, or 0.0 and -0.0, as one
    value, although they give answers of different types or signs. A float
    enters as its hex form, anything else as itself, each beside its type.
    """
    return tuple(
        (type(x), x.hex() if isinstance(x, float) else x) for x in values
    )


def is_exact(x: Scalar) -> bool:
    """True when x participates in exact arithmetic (int or Fraction)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def ratio_bound(eps: float | None = None, exp_eps: Scalar | None = None) -> Scalar:
    """Resolve the (eps, exp_eps) convention to the width-ratio bound e**eps.

    Exactly one argument must be provided. The result is a float when eps was
    given, and whatever scalar type exp_eps carried (ints promoted) otherwise.
    """
    if (eps is None) == (exp_eps is None):
        raise TypeError("pass exactly one of eps or exp_eps")
    if exp_eps is not None:
        bound = exactify(exp_eps)
        if bound < 1:
            raise ValidationError(f"exp_eps must be >= 1, got {exp_eps!r}")
        if bound > _FLOAT_MAX:  # a budget past what eps allows
            raise ValidationError(f"exp_eps must be at most e**{MAX_EPS:.2f}")
        return bound
    if not 0 <= eps <= MAX_EPS:
        raise ValidationError(f"eps must be in [0, {MAX_EPS:.2f}], got {eps!r}")
    return math.exp(eps)


def log_of(x: Scalar) -> float:
    """Natural log as a float, mapping 0 to -inf instead of raising."""
    if x == 0:
        return float("-inf")
    try:
        return math.log(x)
    except OverflowError:  # an exact x beyond the float range, such as 9**9999
        return math.log(x.numerator) - math.log(x.denominator)
