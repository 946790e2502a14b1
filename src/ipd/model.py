"""Priors, information structures, mechanisms, and equivalent transformations.

The objects here describe a joint distribution over a binary state Y, a finite
secret S, and a released signal T. A Prior fixes P(S) and P(Y=1|S). An
InfoStructure adds the signal: per secret, a row of column widths P(T=t|S=s)
and cell posteriors P(Y=1|S=s,T=t). A Mechanism is the equivalent release
kernel P(T=t|S=s,Y=y). Structures and mechanisms are two coordinates for the
same joint distribution and the conversions between them are exact.

Secrets are kept in canonical order, sorted by decreasing P(Y=1|S=s) with the
user's order as tie-break; the permutation back to the user's order is stored
on the Prior. All values are immutable after construction and validated on
construction.

Every width-times-cell product (a row's yellow mass, a column's yellow mass,
a kernel row, a merged cell) goes through _yellow or _white, and each kernel
row's division through _over. An optimal structure's cells are all 0 or 1,
so where a cell is a Fraction 0 or 1 these select the width or the zero of
the product's type instead of calling Fraction's pure-Python operators; each
returns what the plain expression would, in value, type and repr.

Where every value is exact (a Fraction; ints become Fractions on the way
in), which each Prior, InfoStructure and Mechanism decides once, by type, on
construction, the arithmetic runs on integer numerators and denominators:
a column's joint masses go over one common denominator, so its mass and
each posterior is a single Fraction of two integers; _over forms a kernel
entry from the cross products of its two ratios; and the validation sums add
over a running common denominator (numeric.exact_sum). Each output Fraction
is normalized once, and equals what Fraction's operators give, in value,
type and repr. Float and mixed inputs keep those operators and builtin sum,
with one shortcut: beside widths that are all floats, an exact prior only
ever meets floats, so its masses and conditionals are read as floats once
(_read_prior), which is what Fraction's operators do with them anyway.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import (
    BadWeights,
    ConditionalOutOfRange,
    DegenerateConditional,
    MassNotNormalized,
    NonPositiveMass,
    NotEquivalentSignals,
    UnknownLabel,
    ValidationError,
    ZeroMassContext,
)
from .numeric import (
    NORM_TOL,
    Scalar,
    check_slack,
    common_terms,
    exact_sum,
    exactify,
    far,
    near,
    outside_unit,
    typed_key,
)
from .record import Record


def _as_scalar_tuple(values: Iterable[Scalar]) -> tuple[Scalar, ...]:
    return tuple(exactify(v) for v in values)


def _shown(x: Scalar) -> str:
    """x as a float for an error message; an exact x past the float range is +-inf."""
    try:
        return repr(float(x))
    except OverflowError:
        return "inf" if x > 0 else "-inf"


def _clamp_noise(x: Scalar) -> Scalar:
    """Absorb float round-off that lands a hair outside [0, 1]."""
    if isinstance(x, float):
        if -NORM_TOL < x < 0.0:
            return 0.0
        if 1.0 < x < 1.0 + NORM_TOL:
            return 1.0
    return x


_ZERO = Fraction(0)
# Width types whose product with a Fraction cell of 0 or 1 is known without
# multiplying: Fraction keeps Fraction arithmetic, and a float meets the cell
# as the float 0.0 or 1.0, as Fraction's reverse operator converts it.
_SELECTABLE = (float, Fraction)


def _yellow(w: Scalar, c: Scalar) -> Scalar:
    """w * c, with the value, type and repr of that product for every input.

    An optimal structure's cells are all 0 or 1, so a Fraction cell of 0 or
    1 beside a float or Fraction width selects the width, or the zero of
    the product's type (w * 0.0 for a float w, Fraction(0) otherwise),
    instead of going through Fraction's pure-Python operators. Any other
    cell is multiplied, a float cell too: the solvers pair float cells only
    with float widths, a product that is native already.
    """
    if type(c) is Fraction and type(w) in _SELECTABLE:
        if c == 1:
            return w
        if c == 0:
            return w * 0.0 if type(w) is float else _ZERO
    return w * c


def _white(w: Scalar, c: Scalar) -> Scalar:
    """w * (1 - c) as _yellow gives w * c, without forming 1 - c."""
    if type(c) is Fraction and type(w) in _SELECTABLE:
        if c == 0:
            return w
        if c == 1:
            return w * 0.0 if type(w) is float else _ZERO
    return w * (1 - c)


def _over(x: Scalar, d: Scalar) -> Scalar:
    """x / d for a positive, finite d, with the value, type and repr of x / d.

    Over a Fraction d, a float or Fraction zero x is that quotient's zero
    itself (a float zero keeps its sign), so it is returned undivided, and a
    Fraction x is the one Fraction of the two ratios' cross products.
    """
    if type(d) is Fraction and type(x) in _SELECTABLE:
        if type(x) is Fraction:
            a, b = x.as_integer_ratio()
            if a == 0:
                return x
            c, e = d.as_integer_ratio()
            return Fraction(a * e, b * c)
        if x == 0:
            return x
    return x / d


def _float_sum(row: tuple[Scalar, ...]) -> Scalar:
    return sum(filter(None, row))  # skipping zeros spares most mixed additions


def _unit_row(
    row: tuple[Scalar, ...], widths: tuple[Scalar, ...], total: Scalar
) -> tuple[Scalar, ...]:
    """A kernel row as it is, or over its sum total when that misses 1 by over NORM_TOL.

    A structure's yellow (white) mass may miss q (1 - q) by up to the check
    slack, which dividing by q (1 - q) alone leaves in the kernel row. A row
    with no mass at all to divide (q within that slack of 0 or 1) takes the
    secret's widths, which keeps its cells within the slack.
    """
    if not far(total, 1, NORM_TOL):
        return row
    if total == 0:
        return widths
    return tuple(x / total for x in row)


def _all_fractions(*groups: Iterable[Scalar]) -> bool:
    """Whether each value of the groups is a Fraction, as exact ones are after exactify."""
    for group in groups:
        for x in group:
            if type(x) is not Fraction:
                return False
    return True


def _read_prior(
    prior: Prior, widths: Sequence[Sequence[Scalar]]
) -> tuple[Sequence[Scalar], Sequence[Scalar]]:
    """The prior's masses and conditionals as arithmetic with these widths meets them.

    Beside widths that are all floats, an exact mass or conditional only
    ever meets a float, and Fraction's operators turn it into float(x)
    first (Fraction * float is float(Fraction) * float), so it is read as
    that float once, with the same results bit for bit.
    """
    if prior._exact and all(isinstance(x, float) for row in widths for x in row):
        return [float(x) for x in prior.p], [float(x) for x in prior.q]
    return prior.p, prior.q


def _label_index(labels: tuple[str, ...], label: str, kind: str) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise UnknownLabel(f"unknown {kind} {label!r}") from None


class Prior(Record):
    """Joint prior over (S, Y) in canonical secret order.

    Attributes:
        secrets: Secret labels, ordered by decreasing q.
        p: Marginal mass of each secret; positive, sums to 1.
        q: P(Y=1 | S=s) per secret, in [0, 1], non-increasing.
        perm: 1-based position of each canonical secret in the user's input
            order, so perm == (2, 1) means the user listed them swapped.
    """

    secrets: tuple[str, ...]
    p: tuple[Scalar, ...]
    q: tuple[Scalar, ...]
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "secrets", tuple(str(s) for s in self.secrets))
        object.__setattr__(self, "p", _as_scalar_tuple(self.p))
        object.__setattr__(self, "q", _as_scalar_tuple(self.q))
        object.__setattr__(self, "perm", tuple(int(k) for k in self.perm))
        n = len(self.secrets)
        if n < 2:
            raise ValidationError("a prior needs at least 2 secrets")
        if len(set(self.secrets)) != n:
            raise ValidationError("secret labels must be unique")
        if len(self.p) != n or len(self.q) != n or len(self.perm) != n:
            raise ValidationError("secrets, p, q, perm must have equal length")
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValidationError("perm must be a 1-based permutation")
        # Ranges first: an exact value far above 1 cannot meet a float in a
        # sum without overflowing it.
        for label, mass in zip(self.secrets, self.p):
            if mass == 0 or outside_unit(mass):
                if mass <= 0:
                    raise NonPositiveMass(f"secret {label!r} has mass {_shown(mass)}")
                raise MassNotNormalized(
                    f"secret {label!r} has mass {_shown(mass)} above 1"
                )
        for label, cond in zip(self.secrets, self.q):
            if outside_unit(cond):
                raise ConditionalOutOfRange(f"q for secret {label!r} is {_shown(cond)}")
        # Every mass and conditional is a Fraction (ints turn into them on the
        # way in): decided once, by type, for the exact paths here and in the
        # structures and mechanisms on this prior, which read them as integers.
        object.__setattr__(self, "_exact", _all_fractions(self.p, self.q))
        total = exact_sum(self.p) if self._exact else sum(self.p)
        if far(total, 1, NORM_TOL):
            raise MassNotNormalized(f"secret masses sum to {_shown(total)}")
        for a, b in zip(self.q, self.q[1:]):
            if a < b:
                raise ValidationError("q must be non-increasing in canonical order")

    @property
    def n(self) -> int:
        return len(self.secrets)

    @cached_property
    def key(self) -> tuple:
        """Labels, order and every mass and conditional with its type.

        Two priors with the same key give the same answers, types included,
        from every solver; Prior equality, which treats Fraction(1, 2) and
        0.5 alike, does not promise that. Cached, as the fields are immutable.
        """
        return (self.secrets, self.perm, typed_key(self.p), typed_key(self.q))

    @property
    def is_binary(self) -> bool:
        return self.n == 2

    @property
    def p_y1(self) -> Scalar:
        """Marginal probability of the state, P(Y=1)."""
        return sum(ps * qs for ps, qs in zip(self.p, self.q))

    def secret_index(self, label: str) -> int:
        return _label_index(self.secrets, label, "secret")

    def user_order(self) -> tuple[int, ...]:
        """Canonical indices arranged back into the user's input order."""
        by_position = sorted(range(self.n), key=lambda k: self.perm[k])
        return tuple(by_position)


def load_prior(
    pairs: Sequence[tuple[Scalar, Scalar]],
    labels: Sequence[str] | None = None,
) -> Prior:
    """Build a canonical Prior from (mass, P(Y=1|S)) pairs in user order.

    Args:
        pairs: One (p, q) pair per secret.
        labels: Optional secret labels; defaults to s0, s1, ...

    Returns:
        Prior with secrets sorted by decreasing q (stable in the user order)
        and the permutation back to the input order recorded.

    Raises:
        NonPositiveMass: Some mass is zero or negative.
        MassNotNormalized: The masses do not sum to 1 within 1e-12.
        ConditionalOutOfRange: Some conditional lies outside [0, 1].
    """
    rows = [_as_scalar_tuple(pair) for pair in pairs]
    if any(len(row) != 2 for row in rows):
        raise ValidationError("each prior entry must be a (p, q) pair")
    if labels is None:
        labels = [f"s{k}" for k in range(len(rows))]
    labels = [str(s) for s in labels]
    if len(labels) != len(rows):
        raise ValidationError("labels and pairs must have equal length")
    order = sorted(range(len(rows)), key=lambda k: (-rows[k][1], k))
    # perm[c] is the 1-based user position canonical secret c came from.
    perm = tuple(order[c] + 1 for c in range(len(rows)))
    return Prior(
        secrets=tuple(labels[k] for k in order),
        p=tuple(rows[k][0] for k in order),
        q=tuple(rows[k][1] for k in order),
        perm=perm,
    )


def load_prior_joint(
    table: Sequence[tuple[Scalar, Scalar]],
    labels: Sequence[str] | None = None,
) -> Prior:
    """Build a Prior from joint masses (P(S=s,Y=1), P(S=s,Y=0)) in user order.

    The joint masses must sum to 1; each secret's mass is the row total and
    its conditional is the Y=1 share of that total.
    """
    rows = [_as_scalar_tuple(row) for row in table]
    if any(len(row) != 2 for row in rows):
        raise ValidationError("each joint entry must be a (P(s,Y=1), P(s,Y=0)) pair")
    for y1, y0 in rows:
        if y1 < 0 or y0 < 0:
            raise NonPositiveMass("joint masses must be nonnegative")
        if y1 > 1 or y0 > 1:
            raise MassNotNormalized("joint masses must be at most 1")
    total = sum(y1 + y0 for y1, y0 in rows)
    if far(total, 1, NORM_TOL):
        raise MassNotNormalized(f"joint masses sum to {_shown(total)}")
    pairs = []
    for y1, y0 in rows:
        mass = y1 + y0
        if mass <= 0:
            raise NonPositiveMass("a secret has zero joint mass")
        pairs.append((mass, y1 / mass))
    return load_prior(pairs, labels)


ColumnStats = tuple[Scalar, Scalar | None, tuple[Scalar, ...] | None]


class InfoStructure(Record):
    """An information structure: per-secret signal widths and cell posteriors.

    Attributes:
        prior: The underlying Prior (canonical secret order).
        signals: Signal labels, one per column.
        widths: widths[s][t] = P(T=t | S=s); each row sums to 1.
        cells: cells[s][t] = P(Y=1 | S=s, T=t) in [0, 1].

    The rows must be consistent with the prior: for every secret,
    sum_t widths[s][t] * cells[s][t] equals q_s within the check slack.
    """

    prior: Prior
    signals: tuple[str, ...]
    widths: tuple[tuple[Scalar, ...], ...]
    cells: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "signals", tuple(str(t) for t in self.signals))
        object.__setattr__(
            self,
            "widths",
            tuple(tuple(_clamp_noise(exactify(x)) for x in row) for row in self.widths),
        )
        object.__setattr__(
            self,
            "cells",
            tuple(tuple(_clamp_noise(exactify(x)) for x in row) for row in self.cells),
        )
        n, k = self.prior.n, len(self.signals)
        if k == 0:
            raise ValidationError("a structure needs at least one signal")
        if len(set(self.signals)) != k:
            raise ValidationError("signal labels must be unique")
        if len(self.widths) != n or len(self.cells) != n:
            raise ValidationError("widths and cells need one row per secret")
        if any(len(row) != k for row in self.widths) or any(
            len(row) != k for row in self.cells
        ):
            raise ValidationError("widths and cells need one column per signal")
        slack = check_slack()
        # Every prior value, width and cell is a Fraction: decided once, by
        # type, for the exact paths, which read them as integers.
        exact = self.prior._exact and _all_fractions(*self.widths, *self.cells)
        object.__setattr__(self, "_exact", exact)
        add = exact_sum if exact else sum
        for s, row in enumerate(self.widths):
            # a Fraction's sign is its numerator's
            signs = [x.numerator for x in row] if exact else row
            if min(signs) < 0:
                x = next(x for x, sign in zip(row, signs) if sign < 0)
                raise ValidationError(
                    f"negative width {x} in row {self.prior.secrets[s]!r}"
                )
            total = add(row)
            if far(total, 1, NORM_TOL):
                raise MassNotNormalized(
                    f"widths for secret {self.prior.secrets[s]!r} sum to {_shown(total)}"
                )
        for s, row in enumerate(self.cells):
            for x in row:
                if outside_unit(x):
                    raise ConditionalOutOfRange(
                        f"cell posterior {x} in row {self.prior.secrets[s]!r}"
                    )
        _, q = _read_prior(self.prior, self.widths)
        for s in range(n):
            yellow = add(map(_yellow, self.widths[s], self.cells[s]))
            if far(yellow, q[s], slack):
                raise ValidationError(
                    f"row {self.prior.secrets[s]!r} is inconsistent with the prior: "
                    f"yellow mass {_shown(yellow)} vs q={_shown(self.prior.q[s])}"
                )

    @property
    def num_signals(self) -> int:
        return len(self.signals)

    def signal_index(self, label: str) -> int:
        return _label_index(self.signals, label, "signal")

    def signal_mass(self, t: int) -> Scalar:
        """Marginal mass P(T=t) of column t."""
        return self._column_stats[t][0]

    @cached_property
    def _column_stats(self) -> tuple[ColumnStats, ...]:
        # Read through column_stats. The fields are immutable, so the cache
        # cannot go stale; Record's eq and hash look only at the fields.
        # Each joint mass p[s] * widths[s][t] is formed once and serves the
        # column mass, its yellow mass and the secret posteriors alike.
        if self._exact:
            return self._exact_column_stats()
        (p, _), secrets = _read_prior(self.prior, self.widths), range(self.prior.n)
        stats = []
        for t in range(self.num_signals):
            joint = [p[s] * self.widths[s][t] for s in secrets]
            mass = sum(joint)
            if mass == 0:
                stats.append((mass, None, None))
                continue
            yellow = sum(_yellow(x, self.cells[s][t]) for s, x in zip(secrets, joint))
            s_post = tuple(x / mass for x in joint)
            stats.append((mass, yellow / mass, s_post))
        return tuple(stats)

    def _exact_column_stats(self) -> tuple[ColumnStats, ...]:
        # A column's joint masses over their common denominator are integers
        # J_s, and with its cells c_s = e_s / f_s its mass is sum(J) over
        # that denominator, its posterior sum(J_s e_s / f_s) / sum(J) and
        # P(S=s | t) J_s / sum(J): each one Fraction of two integers.
        masses = [x.as_integer_ratio() for x in self.prior.p]
        stats = []
        for widths, cells in zip(zip(*self.widths), zip(*self.cells)):
            widths = [x.as_integer_ratio() for x in widths]
            joint, common = common_terms(
                (a * c, b * d) for (a, b), (c, d) in zip(masses, widths)
            )
            mass = sum(joint)
            if mass == 0:
                stats.append((Fraction(0), None, None))
                continue
            cells = [x.as_integer_ratio() for x in cells]
            yellow, scale = common_terms((j * e, f) for j, (e, f) in zip(joint, cells))
            post = Fraction(sum(yellow), mass * scale)
            s_post = tuple(Fraction(j, mass) for j in joint)
            stats.append((Fraction(mass, common), post, s_post))
        return tuple(stats)

    @cached_property
    def _utility_sums(self) -> dict:
        # expected_utility's results on this structure, by the utility's key
        # (UtilityFn.key). Like _column_stats, it cannot go stale.
        return {}


class PosteriorSummary(Record):
    """Distribution of the observer's posterior after seeing the signal.

    Zero-mass signals are dropped, so every kept signal has p > 0.

    Attributes:
        signals: Labels of the kept signals.
        p: P(T=t) per kept signal, sums to 1.
        q: P(Y=1 | T=t) per kept signal.
        s_post: s_post[t][s] = P(S=s | T=t); each row sums to 1.
    """

    signals: tuple[str, ...]
    p: tuple[Scalar, ...]
    q: tuple[Scalar, ...]
    s_post: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "signals", tuple(str(t) for t in self.signals))
        object.__setattr__(self, "p", _as_scalar_tuple(self.p))
        object.__setattr__(self, "q", _as_scalar_tuple(self.q))
        object.__setattr__(
            self, "s_post", tuple(_as_scalar_tuple(row) for row in self.s_post)
        )
        k = len(self.signals)
        if not (len(self.p) == len(self.q) == len(self.s_post) == k):
            raise ValidationError("summary fields must have equal length")
        if k == 0:
            raise ValidationError("a summary needs at least one signal")
        for mass in self.p:
            if mass <= 0:
                raise NonPositiveMass("summary keeps only positive-mass signals")
        if far(sum(self.p), 1, NORM_TOL):
            raise MassNotNormalized("signal masses must sum to 1")
        for post in self.q:
            if outside_unit(post):
                raise ConditionalOutOfRange(f"posterior {post} outside [0, 1]")
        for row in self.s_post:
            if far(sum(row), 1, NORM_TOL):
                raise MassNotNormalized("secret posteriors must sum to 1 per signal")

    @property
    def mean(self) -> Scalar:
        """The martingale mean sum_t p_t * q_t, equal to P(Y=1)."""
        return sum(pt * qt for pt, qt in zip(self.p, self.q))


def column_stats(st: InfoStructure) -> tuple[ColumnStats, ...]:
    """Per column t: (P(T=t), P(Y=1 | T=t), P(S | T=t)).

    The two posteriors are None on a zero-mass column. This is the one entry
    point for a column's statistics; every other routine reads them here.
    They are computed once per structure, on the first call, and every later
    call on the same structure returns the same tuple.
    """
    return st._column_stats


def posterior_summary(st: InfoStructure) -> PosteriorSummary:
    """Summarize a structure into signal masses and posteriors.

    Zero-mass signals carry no information and are dropped.
    """
    kept = [
        (label, *stats)
        for label, stats in zip(st.signals, column_stats(st))
        if stats[1] is not None
    ]
    signals, masses, posts, s_rows = zip(*kept)
    return PosteriorSummary(signals=signals, p=masses, q=posts, s_post=s_rows)


class Mechanism(Record):
    """Release kernel P(T=t | S=s, Y=y) together with its prior.

    Attributes:
        prior: The underlying Prior.
        signals: Signal labels indexing the last kernel axis.
        kernel: kernel[s][y][t] with y in {0, 1}; rows for (s, y) contexts of
            positive prior mass sum to 1. Rows for zero-mass contexts are
            stored as full-disclosure rows so the kernel stays total.
    """

    prior: Prior
    signals: tuple[str, ...]
    kernel: tuple[tuple[tuple[Scalar, ...], tuple[Scalar, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "signals", tuple(str(t) for t in self.signals))
        object.__setattr__(
            self,
            "kernel",
            tuple(
                tuple(
                    tuple(_clamp_noise(exactify(x)) for x in row) for row in by_state
                )
                for by_state in self.kernel
            ),
        )
        n, k = self.prior.n, len(self.signals)
        if len(self.kernel) != n:
            raise ValidationError("kernel needs one block per secret")
        rows = [row for pair in self.kernel for row in pair]
        exact = self.prior._exact and _all_fractions(*rows)
        add = exact_sum if exact else sum
        for s, by_state in enumerate(self.kernel):
            if len(by_state) != 2:
                raise ValidationError("each kernel entry needs rows for y=0 and y=1")
            for y, row in enumerate(by_state):
                if len(row) != k:
                    raise ValidationError("kernel rows need one entry per signal")
                for x in row:
                    if outside_unit(x):
                        raise ConditionalOutOfRange(
                            f"kernel entry {x} outside [0, 1]"
                        )
                if exact:  # p > 0, so the context has mass where q (1 - q) has
                    num, den = self.prior.q[s].as_integer_ratio()
                    positive = num > 0 if y == 1 else num < den
                else:
                    positive = self.prior.p[s] * (
                        self.prior.q[s] if y == 1 else 1 - self.prior.q[s]
                    ) > 0
                if positive and far(add(row), 1, NORM_TOL):
                    raise MassNotNormalized(
                        f"kernel row for ({self.prior.secrets[s]!r}, y={y}) "
                        f"sums to {_shown(sum(row))}"
                    )

    def signal_index(self, label: str) -> int:
        return _label_index(self.signals, label, "signal")


def structure_to_mechanism(st: InfoStructure) -> Mechanism:
    """Convert a structure to its release kernel P(T | S, Y).

    For y=1 the row is widths*cells/q_s, for y=0 it is widths*(1-cells)/(1-q_s),
    each divided again by its own sum when that misses 1 (_unit_row).
    Contexts of zero prior mass (q_s at 0 or 1) get a full-disclosure row: all
    mass on the signal whose posterior matches the impossible state, which
    keeps the kernel total without affecting the joint distribution.

    Raises:
        DegenerateConditional: q_s is 0 or 1 but the row still carries cell
            mass on the impossible state beyond the check slack.
    """
    prior = st.prior
    k = st.num_signals
    slack = check_slack()
    # The first highest- and lowest-posterior columns among those with mass.
    posts = {
        t: post for t, (_, post, _) in enumerate(column_stats(st)) if post is not None
    }
    exact = st._exact
    if exact:  # compared as integers over their common denominator
        keys, _ = common_terms(x.as_integer_ratio() for x in posts.values())
        posts = dict(zip(posts, keys))
    top = max(posts, key=posts.__getitem__)
    bot = min(posts, key=posts.__getitem__)
    add = exact_sum if exact else _float_sum
    kernel = []
    for s in range(prior.n):
        qs = prior.q[s]
        if exact:
            num, den = qs.as_integer_ratio()
            has_yellow, has_white = num > 0, num < den
        else:
            has_yellow, has_white = qs > 0, qs < 1
        yellow_row = tuple(map(_yellow, st.widths[s], st.cells[s]))
        white_row = tuple(map(_white, st.widths[s], st.cells[s]))
        if has_yellow:
            row1 = tuple(_over(x, qs) for x in yellow_row)
            row1 = _unit_row(row1, st.widths[s], add(row1))
        else:
            if sum(yellow_row) > slack:
                raise DegenerateConditional(
                    f"secret {prior.secrets[s]!r} has q=0 but yellow mass "
                    f"{_shown(sum(yellow_row))}"
                )
            row1 = tuple(1 if t == top else 0 for t in range(k))
        if has_white:
            white_q = Fraction(den - num, den) if exact else 1 - qs
            row0 = tuple(_over(x, white_q) for x in white_row)
            row0 = _unit_row(row0, st.widths[s], add(row0))
        else:
            if sum(white_row) > slack:
                raise DegenerateConditional(
                    f"secret {prior.secrets[s]!r} has q=1 but white mass "
                    f"{_shown(sum(white_row))}"
                )
            row0 = tuple(1 if t == bot else 0 for t in range(k))
        kernel.append((row0, row1))
    return Mechanism(prior=prior, signals=st.signals, kernel=tuple(kernel))


def mechanism_to_structure(m: Mechanism) -> InfoStructure:
    """Convert a release kernel back to the width/posterior grid.

    Widths are q_s*kernel[s][1] + (1-q_s)*kernel[s][0]; cell posteriors follow
    from Bayes' rule on each positive-width cell (zero-width cells get 0).
    """
    prior = m.prior
    k = len(m.signals)
    widths, cells = [], []
    for s in range(prior.n):
        qs = prior.q[s]
        row0, row1 = m.kernel[s]
        w_row, c_row = [], []
        for t in range(k):
            w = qs * row1[t] + (1 - qs) * row0[t]
            w_row.append(w)
            c_row.append(qs * row1[t] / w if w > 0 else 0)
        widths.append(tuple(w_row))
        cells.append(tuple(c_row))
    return InfoStructure(
        prior=prior, signals=m.signals, widths=tuple(widths), cells=tuple(cells)
    )


def split_signal(
    st: InfoStructure, t: str, weights: Sequence[Scalar]
) -> InfoStructure:
    """Split one signal into several, dividing its mass by the given weights.

    Every part keeps the original cell posteriors, so P(Y|T) and P(S|T) are
    unchanged and the result is equivalent to the input. A single weight of 1
    returns the structure unchanged.

    Raises:
        BadWeights: Weights are empty, non-positive, or do not sum to 1.
    """
    parts = _as_scalar_tuple(weights)
    if not parts:
        raise BadWeights("weights must be non-empty")
    if any(w <= 0 for w in parts):
        raise BadWeights("weights must be positive")
    if far(sum(parts), 1, NORM_TOL):
        raise BadWeights(f"weights sum to {_shown(sum(parts))}")
    idx = st.signal_index(t)
    if len(parts) == 1:
        return st
    new_labels = tuple(f"{t}_{j + 1}" for j in range(len(parts)))
    taken = set(st.signals) - {t}
    if taken & set(new_labels):
        raise ValidationError("split labels collide with existing signals")
    signals = st.signals[:idx] + new_labels + st.signals[idx + 1 :]
    widths, cells = [], []
    for s in range(st.prior.n):
        w_row = st.widths[s]
        c_row = st.cells[s]
        widths.append(
            w_row[:idx] + tuple(w_row[idx] * part for part in parts) + w_row[idx + 1 :]
        )
        cells.append(c_row[:idx] + (c_row[idx],) * len(parts) + c_row[idx + 1 :])
    return InfoStructure(
        prior=st.prior, signals=signals, widths=tuple(widths), cells=tuple(cells)
    )


def _equivalent(a: ColumnStats, b: ColumnStats, slack: float) -> bool:
    """Whether two positive-mass columns agree on P(Y|T) and P(S|T)."""
    return near(a[1], b[1], slack) and all(
        near(x, y, slack) for x, y in zip(a[2], b[2])
    )


def _merge_columns(st: InfoStructure, groups: Sequence[Sequence[int]]) -> InfoStructure:
    """The structure with each group of column indices summed into its first.

    Groups are ordered, and each becomes one column with its first member's
    label; a column in no group is dropped and a one-column group is copied
    unchanged. A merged cell posterior is the width-weighted average of the
    group's cells in that row, which preserves each row's yellow mass exactly.
    """
    widths, cells = [], []
    for w_row, c_row in zip(st.widths, st.cells):
        w_out, c_out = [], []
        for group in groups:
            if len(group) == 1:
                w_out.append(w_row[group[0]])
                c_out.append(c_row[group[0]])
                continue
            total = sum(w_row[i] for i in group)
            yellow = sum(_yellow(w_row[i], c_row[i]) for i in group)
            w_out.append(total)
            c_out.append(yellow / total if total > 0 else 0)
        widths.append(tuple(w_out))
        cells.append(tuple(c_out))
    return InfoStructure(
        prior=st.prior,
        signals=tuple(st.signals[group[0]] for group in groups),
        widths=tuple(widths),
        cells=tuple(cells),
    )


def merge_signals(st: InfoStructure, group: Iterable[str]) -> InfoStructure:
    """Merge signals that share identical posteriors into one.

    The merged signal keeps the first member's label and position and carries
    the summed mass; P(Y|T) and P(S|T) are unchanged. Zero-mass members are
    absorbed without an equivalence check. A singleton group is the identity.

    Raises:
        NotEquivalentSignals: Two positive-mass members differ in P(Y|T) or
            P(S|T) beyond the check slack.
    """
    labels = list(dict.fromkeys(group))
    if not labels:
        raise ValidationError("merge group must be non-empty")
    indices = sorted(st.signal_index(t) for t in labels)
    if len(indices) == 1:
        return st
    stats = column_stats(st)
    slack = check_slack()
    positive = [i for i in indices if stats[i][1] is not None]
    for i in positive[1:]:
        if not _equivalent(stats[i], stats[positive[0]], slack):
            raise NotEquivalentSignals(
                f"signals {st.signals[positive[0]]!r} and {st.signals[i]!r} "
                "have different posteriors"
            )
    members = set(indices)
    groups = [
        indices if t == indices[0] else [t]
        for t in range(st.num_signals)
        if t == indices[0] or t not in members
    ]
    return _merge_columns(st, groups)


def compress(st: InfoStructure) -> InfoStructure:
    """Drop zero-mass signals and merge every equivalence class of the rest.

    Signals are equivalent when their P(Y|T) and P(S|T) agree within the check
    slack. The first member of each class keeps its label and position. The
    result has no zero-mass columns and no two equivalent columns, so applying
    compress twice changes nothing; a structure already in that form is
    returned as it is, not rebuilt.
    """
    stats = column_stats(st)
    slack = check_slack()
    classes: list[list[int]] = []
    for t, col in enumerate(stats):
        if col[1] is None:
            continue
        for members in classes:
            if _equivalent(col, stats[members[0]], slack):
                members.append(t)
                break
        else:
            classes.append([t])
    if len(classes) == st.num_signals:
        return st
    return _merge_columns(st, classes)


def sample_signal(
    m: Mechanism, s: str, y: int, rng_seed: int, count: int
) -> list[str]:
    """Draw signals i.i.d. from the kernel row for (secret, state).

    Draws come from the standard library's ``random.Random(rng_seed)``, by
    bisection over the cumulative float kernel row, so a signal of zero
    kernel weight is never drawn and an exact mechanism draws the same
    stream as its float twin.

    Args:
        m: The release mechanism.
        s: Secret label.
        y: State, 0 or 1.
        rng_seed: Seed of the draws; draws are deterministic per seed.
        count: Number of draws; 0 gives an empty list.

    Raises:
        UnknownLabel: The mechanism's prior has no secret s.
        ValidationError: y is not 0 or 1, count or rng_seed is negative, or
            count is above sys.maxsize.
        ZeroMassContext: P(S=s, Y=y) is zero under the prior.
    """
    if y not in (0, 1):
        raise ValidationError(f"state must be 0 or 1, got {y!r}")
    if count < 0:
        raise ValidationError("count must be nonnegative")
    if rng_seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {rng_seed}")
    idx = m.prior.secret_index(s)
    mass = m.prior.p[idx] * (m.prior.q[idx] if y == 1 else 1 - m.prior.q[idx])
    if mass == 0:
        raise ZeroMassContext(f"P(S={s!r}, Y={y}) is zero under the prior")
    if count == 0:
        return []
    import random

    if count > sys.maxsize:
        raise ValidationError(f"count {count} is too large to draw")
    cum_weights = list(accumulate(float(x) for x in m.kernel[idx][y]))
    rng = random.Random(rng_seed)
    return rng.choices(m.signals, cum_weights=cum_weights, k=count)
