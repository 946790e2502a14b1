"""JSON documents for priors, structures, and mechanisms.

Numbers are written as JSON numbers for floats and as "numerator/denominator"
strings for exact rationals, so a closed-form solution survives a write/read
round trip without precision loss. Readers accept numbers, rational strings,
and decimal strings (decimal strings parse exactly).

Grid rows are stored in an explicit secret_order list rather than relying on
the embedded prior's ordering, so documents stay readable after manual edits
that reorder secrets.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ValidationError
from .model import (
    InfoStructure,
    Mechanism,
    Prior,
    load_prior,
    load_prior_joint,
)
from .numeric import Scalar


def encode_number(x: Scalar):
    if isinstance(x, bool):
        raise ValidationError("booleans are not probabilities")
    if isinstance(x, (int, float)):
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    raise ValidationError(f"cannot encode a {type(x).__name__} as a number")


# An exact number's numerator and denominator must each stay below
# 2**EXACT_BITS, inside the float range: exact inputs meet float ones in the
# same sums, and a larger value overflows the float it is converted to.
EXACT_BITS = 1023


def decode_number(value) -> Scalar:
    if isinstance(value, bool):
        raise ValidationError("booleans are not probabilities")
    if isinstance(value, float):
        return value
    if isinstance(value, int):
        number = value
    elif isinstance(value, str):
        try:
            number = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"cannot parse number {value!r}") from None
    else:
        raise ValidationError(f"expected a number, got {type(value).__name__}")
    if max(number.numerator.bit_length(), number.denominator.bit_length()) > EXACT_BITS:
        raise ValidationError(
            "exact number out of range: numerator and denominator "
            f"must be below 2**{EXACT_BITS}"
        )
    return number


def _rows(obj, key: str) -> list:
    rows = obj.get(key)
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f"{key!r} must be a non-empty list")
    for row in rows:
        if not isinstance(row, dict):
            raise ValidationError(f"each {key!r} entry must be an object")
    return rows


def encode_prior(prior: Prior) -> dict:
    return {
        "secrets": [
            {
                "name": prior.secrets[c],
                "p": encode_number(prior.p[c]),
                "q_y1": encode_number(prior.q[c]),
            }
            for c in prior.user_order()
        ]
    }


def decode_prior(obj) -> Prior:
    if not isinstance(obj, dict):
        raise ValidationError("prior document must be a JSON object")
    # (list key, each entry's two number fields, its name in messages, loader)
    for key, (a, b), entry, load in (
        ("joint", ("p_y1", "p_y0"), "joint", load_prior_joint),
        ("secrets", ("p", "q_y1"), "secret", load_prior),
    ):
        if key not in obj:
            continue
        rows = _rows(obj, key)
        try:
            pairs = [(decode_number(row[a]), decode_number(row[b])) for row in rows]
            labels = [row["name"] for row in rows]
        except KeyError as exc:
            raise ValidationError(f"{entry} entry missing key {exc}") from None
        return load(pairs, labels)
    raise ValidationError("prior document needs a 'secrets' or 'joint' list")


def _read_document(obj, kind: str, grids: tuple[str, ...]):
    """Check a structure or mechanism document's header and grid lengths.

    Returns the prior, the signal labels and, for each key in grids, that
    grid's rows in the prior's canonical secret order.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{kind} document must be a JSON object")
    # A prior document handed over where a structure or mechanism belongs
    # has no "prior" key; say so rather than blame the prior's own shape.
    prior = obj.get("prior")
    if not isinstance(prior, dict):
        raise ValidationError(f"{kind} document lacks its 'prior' object")
    prior = decode_prior(prior)
    order = obj.get("secret_order")
    names = isinstance(order, list) and all(isinstance(x, str) for x in order)
    if not names or sorted(order) != sorted(prior.secrets):
        raise ValidationError(
            "secret_order must list exactly the prior's secret names"
        )
    signals = obj.get("signals")
    if not isinstance(signals, list):
        raise ValidationError("'signals' must be a list of labels")
    positions = [order.index(name) for name in prior.secrets]
    rows = []
    for key in grids:
        grid = obj.get(key)
        if not isinstance(grid, list) or len(grid) != prior.n:
            raise ValidationError(f"{key!r} must have one row per secret")
        rows.append([grid[pos] for pos in positions])
    return prior, tuple(signals), rows


def _number_row(row, key: str) -> tuple[Scalar, ...]:
    if not isinstance(row, list):
        raise ValidationError(f"each {key!r} row must be a list of numbers")
    return tuple(decode_number(x) for x in row)


def _header(record: InfoStructure | Mechanism) -> dict:
    return {
        "prior": encode_prior(record.prior),
        "secret_order": list(record.prior.secrets),
        "signals": list(record.signals),
    }


def encode_structure(st: InfoStructure) -> dict:
    return {
        **_header(st),
        "widths": [[encode_number(x) for x in row] for row in st.widths],
        "cells": [[encode_number(x) for x in row] for row in st.cells],
    }


def decode_structure(obj) -> InfoStructure:
    prior, signals, (widths, cells) = _read_document(
        obj, "structure", ("widths", "cells")
    )
    return InfoStructure(
        prior=prior,
        signals=signals,
        widths=tuple(_number_row(row, "widths") for row in widths),
        cells=tuple(_number_row(row, "cells") for row in cells),
    )


def encode_mechanism(m: Mechanism) -> dict:
    return {
        **_header(m),
        "kernel": [
            [[encode_number(x) for x in row] for row in block]
            for block in m.kernel
        ],
    }


def decode_mechanism(obj) -> Mechanism:
    prior, signals, (kernel,) = _read_document(obj, "mechanism", ("kernel",))
    decoded = []
    for block in kernel:
        # Mechanism checks that the block holds rows for y=0 and y=1
        if not isinstance(block, list):
            raise ValidationError("each kernel entry needs rows for y=0 and y=1")
        decoded.append(tuple(_number_row(row, "kernel") for row in block))
    return Mechanism(prior=prior, signals=signals, kernel=tuple(decoded))


def decode_rewards(obj) -> tuple[tuple[Scalar, ...], ...]:
    """Parse a reward matrix document: two rows (y=0, y=1) of numbers."""
    if isinstance(obj, dict):
        obj = obj.get("rewards")
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValidationError(
            "rewards document must be two rows of numbers (y=0, then y=1)"
        )
    return tuple(_number_row(row, "rewards") for row in obj)


def read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and ints past
        # Python's digit limit; RecursionError, nesting too deep to decode.
        raise ValidationError(f"invalid JSON in {path}: {exc}") from None


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
