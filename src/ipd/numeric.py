"""Numeric conventions shared across the package.

Two arithmetic modes coexist. In float mode, probabilities are Python floats
and every verification applies a small slack. In exact mode, inputs are
``fractions.Fraction`` (ints are promoted on the way in) and the closed-form
solvers produce exact rationals; verifications then compare exactly. The mode
is a property of the values, not a global switch: arithmetic here and in the
solvers is written so that Fractions in give Fractions out, and where every
input is exact the hot paths add Fractions as integers over a common
denominator (``exact_sum``, ``common_terms``) and normalize each result once,
with the value, type and repr Fraction's operators would give. Where ipd.model
multiplies a width by a cell posterior, a Fraction cell of 0 or 1 (every
cell of an optimal structure is one) selects the width or a zero instead;
the result has the product's value, type and repr, so neither mode sees it.

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

Tolerance and range tests go through three helpers, ``far(a, b, tol)``,
``near(a, b, tol)`` and ``outside_unit(x)``. Each answers exactly as the
expression it stands for (``abs(a - b) > tol``, ``abs(a - b) <= tol`` and
``x < 0 or x > 1``) for every input type, NaN and infinities included, given
a tolerance that is a number >= 0. They only settle the common cases
cheaply: an equality test before the subtraction, which on Fractions spares
a subtraction and a comparison against a float tolerance (a Fraction with a
denominator near 2**92 for 1e-12), and a Fraction's integer fields in place
of two rational comparisons.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction
from typing import Iterable, Union

from .errors import ValidationError

Scalar = Union[int, float, Fraction]

NORM_TOL = 1e-12
CHECK_TOL = 1e-9
PATH_TOL = 1e-7

# Default secret cap of the general solver, whose LP, built column by
# column, has O(n**3) columns and 2n equality rows. It lives here, not in
# general.py, so the CLI parser can show it as a default without importing
# the general solver.
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

    Finite floats (numpy's float64, a float subclass, included) and
    Fractions pass through unchanged, as the same object. Booleans are
    rejected (a True/False probability is always a bug at the call site),
    and so are NaN and infinities, which would slip past every range check.
    Floats, the commonest input, are tested first, then Fractions.
    """
    if isinstance(x, float):
        if math.isfinite(x):
            return x
        raise ValidationError(f"expected a finite number, got {x!r}")
    if type(x) is Fraction:
        return x
    if isinstance(x, bool):
        raise TypeError("probabilities must be numbers, not booleans")
    if isinstance(x, int):
        return Fraction(x)
    if not isinstance(x, Fraction):
        raise TypeError(f"expected a real number, got {type(x).__name__}")
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


def common_terms(ratios: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Each n/d of the (n, d) pairs of ints, d > 0, as an int over the pairs' lcm.

    Returns the scaled numerators and that common denominator; a sum over
    them is one int addition per term, and Fraction(sum(terms), common)
    normalizes it with one gcd.
    """
    ratios = list(ratios)
    common = math.lcm(*[d for _, d in ratios])
    return [n * (common // d) for n, d in ratios], common


def exact_sum(values: Iterable[int | Fraction]) -> int | Fraction:
    """sum(values) over ints and Fractions, with that sum's value, type and repr.

    The terms are added as integers over their running least common
    denominator and the total is normalized once, where builtin sum makes
    one Fraction addition, gcds and a normalization in pure Python, per
    term. Ints alone sum to an int, as they do under sum.
    """
    total, common, fraction = 0, 1, False
    for x in values:
        fraction = fraction or isinstance(x, Fraction)
        num, den = x.as_integer_ratio()
        if den == common:
            total += num
        else:
            scale = math.lcm(common, den)
            total = total * (scale // common) + num * (scale // den)
            common = scale
    return Fraction(total, common) if fraction else total


def ratio_bound(eps: float | None = None, exp_eps: Scalar | None = None) -> Scalar:
    """Resolve the (eps, exp_eps) convention to the width-ratio bound e**eps.

    Exactly one argument must be provided. The result is a float when eps was
    given, and whatever scalar type exp_eps carried (ints promoted) otherwise.
    """
    if (eps is None) == (exp_eps is None):
        raise TypeError("pass exactly one of eps or exp_eps")
    if exp_eps is not None:
        if type(exp_eps) is Fraction:  # compared through its integer fields
            bound, num, den = exp_eps, exp_eps.numerator, exp_eps.denominator
            below, above = num < den, num > _FLOAT_MAX * den
        else:
            bound = exactify(exp_eps)
            below, above = bound < 1, bound > _FLOAT_MAX
        if below:
            raise ValidationError(f"exp_eps must be >= 1, got {exp_eps!r}")
        if above:  # a budget past what eps allows
            raise ValidationError(f"exp_eps must be at most e**{MAX_EPS:.2f}")
        return bound
    if not 0 <= eps <= MAX_EPS:
        raise ValidationError(f"eps must be in [0, {MAX_EPS:.2f}], got {eps!r}")
    return math.exp(eps)


# Types whose equal values always differ by exactly zero; a float equal to
# itself may be an infinity, whose difference with itself is NaN.
_FINITE_TYPES = (int, Fraction)


def far(a: Scalar, b: Scalar, tol: float) -> bool:
    """abs(a - b) > tol, with no subtraction when a == b."""
    return a != b and abs(a - b) > tol


def near(a: Scalar, b: Scalar, tol: float) -> bool:
    """abs(a - b) <= tol, with no subtraction when a is an int or Fraction equal to b."""
    if a == b and (type(a) in _FINITE_TYPES or a - b == 0):
        return True
    return abs(a - b) <= tol


def outside_unit(x: Scalar) -> bool:
    """x < 0 or x > 1; a Fraction is read off its numerator and denominator."""
    if type(x) is Fraction:
        num = x.numerator
        return num < 0 or num > x.denominator
    return x < 0 or x > 1


def log_ratio(num: int, den: int) -> float:
    """log_of(Fraction(num, den)) for positive ints, read off the ints.

    Their true division is correctly rounded, as the Fraction's float is,
    and past the float range the lowest-terms ints are logged apart, as
    log_of does with a Fraction's fields.
    """
    try:
        return math.log(num / den)
    except OverflowError:
        g = math.gcd(num, den)
        return math.log(num // g) - math.log(den // g)


def log_of(x: Scalar) -> float:
    """Natural log as a float, mapping 0 to -inf instead of raising."""
    if x == 0:
        return float("-inf")
    try:
        return math.log(x)
    except OverflowError:  # an exact x beyond the float range, such as 9**9999
        return math.log(x.numerator) - math.log(x.denominator)
