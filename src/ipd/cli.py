"""Command-line interface.

Subcommands: solve, solve-general, verify, utility, sweep, sample, oracle.
Structures and mechanisms travel as JSON documents, sweeps as CSV. Budgets
accept plain numbers ("0.7"), zero, and exact log forms ("ln2", "2ln3",
"ln(2)"), the latter keeping all arithmetic in rationals end to end.

Exit codes: 0 success; 1 semantic verification failure (a verify that finds
the budget violated, an oracle that beats the solver); 2 input or validation
error or LP solver failure, reported as a JSON object on stderr (an unknown
secret label, a document row that is not a list and a negative seed are input
errors too); 3 secret-count cap exceeded.
The IPD_TOLERANCE environment variable overrides the default 1e-9 slack of
the verification checks.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from fractions import Fraction

from .analysis import (
    BUILTIN_FAMILIES,
    IpReport,
    RegionReport,
    UtilityFn,
    check_ip,
    check_regions,
    expected_utility,
    parse_utility,
    utility_gain,
)
from .binary import solve_binary
from .errors import IpdError, UnsupportedSize, ValidationError
from .model import posterior_summary, sample_signal
from .numeric import MAX_EPS, MAX_SECRETS, check_slack, log_of, ratio_bound
from .serialize import (
    decode_mechanism,
    decode_prior,
    decode_rewards,
    decode_structure,
    encode_mechanism,
    encode_structure,
    read_json,
    write_json,
)

# The general solver and the oracles import numpy; only the commands that
# run them import them, at call time, so the binary commands start without it.

MAX_GRID_POINTS = 100_000  # budgets in one sweep; each runs every utility
MAX_SAMPLE_COUNT = 10_000_000  # draws in one sample; each prints one line

_LOG_FORM = re.compile(r"^\s*(\d+)?\s*\*?\s*ln\(?\s*([0-9.]+)\s*\)?\s*$")


def parse_eps(text: str) -> tuple[float | None, Fraction | None]:
    """Parse a budget argument into the (eps, exp_eps) calling convention.

    Returns exactly one non-None component: log forms and zero give an exact
    ratio bound, anything else a float exponent.
    """
    match = _LOG_FORM.match(text)
    if match:
        try:
            mult = int(match.group(1) or 1)
            base = Fraction(match.group(2))
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"cannot parse budget {text!r}") from None
        # both checked before the power, which a large multiplier makes huge
        if mult and base < 1:
            raise ValidationError("budget must be nonnegative")
        if mult and base > 1 and mult > MAX_EPS / log_of(base):
            raise ValidationError(f"budget {text!r} is above {MAX_EPS:.2f}")
        return None, base**mult
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"cannot parse budget {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise ValidationError("budget must be a finite nonnegative number")
    if value == 0:
        return None, Fraction(1)
    return value, None


def _load_utility(spec: str) -> UtilityFn:
    return parse_utility(spec, rewards_loader=lambda path: decode_rewards(read_json(path)))


def _jnum(x):
    """JSON-safe number: infinities become strings, exact values floats."""
    value = float(x)
    return value if math.isfinite(value) else repr(value)


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _ip_payload(report: IpReport) -> dict:
    return {
        "satisfied": report.satisfied,
        "max_log_ratio": _jnum(report.max_log_ratio),
        "witness": list(report.witness) if report.witness else None,
        "binding": dict(report.binding),
    }


def _regions_payload(report: RegionReport) -> dict:
    witnesses = report.witnesses
    return {
        **{key: value is None for key, value in witnesses.items()},
        "witnesses": {
            key: (list(value) if value is not None else None)
            for key, value in witnesses.items()
        },
        "zero_width_cells": [list(cell) for cell in report.zero_width_cells],
    }


def _summary_payload(structure) -> dict:
    summary = posterior_summary(structure)
    return {
        "signals": list(summary.signals),
        "signal_masses": [_jnum(x) for x in summary.p],
        "posteriors": [_jnum(x) for x in summary.q],
    }


def cmd_solve(args) -> int:
    prior = decode_prior(read_json(args.prior))
    if not prior.is_binary:
        raise ValidationError(
            f"prior has {prior.n} secrets; use solve-general for more than 2"
        )
    eps, exp_eps = parse_eps(args.eps)
    solution = solve_binary(prior, eps, exp_eps=exp_eps)
    if args.out_structure:
        write_json(args.out_structure, encode_structure(solution.structure))
    if args.out_mechanism:
        write_json(args.out_mechanism, encode_mechanism(solution.mechanism))
    payload = {
        "regime": solution.regime.tag.value,
        "r1": _jnum(solution.regime.r1),
        "r2": _jnum(solution.regime.r2),
    }
    payload.update(_summary_payload(solution.structure))
    _emit(payload)
    return 0


def cmd_solve_general(args) -> int:
    from .general import solve_general

    prior = decode_prior(read_json(args.prior))
    eps, exp_eps = parse_eps(args.eps)
    u = _load_utility(args.utility)
    solution = solve_general(
        prior, eps, u, exp_eps=exp_eps, max_secrets=args.max_secrets
    )
    if args.out_structure:
        write_json(args.out_structure, encode_structure(solution.structure))
    if args.out_mechanism:
        write_json(args.out_mechanism, encode_mechanism(solution.mechanism))
    payload = {
        "utility": _jnum(solution.utility),
        "assignment": [list(col) for col in solution.assignment.columns],
    }
    payload.update(_summary_payload(solution.structure))
    _emit(payload)
    return 0


def cmd_verify(args) -> int:
    structure = decode_structure(read_json(args.structure))
    eps, exp_eps = parse_eps(args.eps)
    ip = check_ip(structure, eps, exp_eps=exp_eps)
    payload = {"ip": _ip_payload(ip), "regions": None}
    if exp_eps != 1:
        payload["regions"] = _regions_payload(
            check_regions(structure, eps, exp_eps=exp_eps)
        )
    _emit(payload)
    return 0 if ip.satisfied else 1


def cmd_utility(args) -> int:
    structure = decode_structure(read_json(args.structure))
    u = _load_utility(args.utility)
    payload = {
        "family": u.label(),
        "utility": _jnum(expected_utility(structure, u)),
    }
    payload.update(_summary_payload(structure))
    _emit(payload)
    return 0


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError("grid must be start:stop:step")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError:
        raise ValidationError(f"cannot parse grid {spec!r}") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValidationError(f"grid {spec!r} needs finite start, stop and step")
    if step <= 0 or stop < start or start < 0:
        raise ValidationError("grid needs start >= 0, stop >= start, step > 0")
    # Count before building: a tiny step must not allocate a huge list.
    steps = (stop - start) / step + 1e-9
    if steps >= MAX_GRID_POINTS:
        raise ValidationError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    grid = [start + k * step for k in range(int(steps) + 1)]
    ratio_bound(grid[-1])  # the largest budget must not overflow e**eps
    return grid


def cmd_sweep(args) -> int:
    prior = decode_prior(read_json(args.prior))
    grid = _parse_grid(args.grid)
    families = [name.strip() for name in args.utilities.split(",") if name.strip()]
    if not families:
        raise ValidationError("no utility families given")
    utilities = sorted(
        ((name, _load_utility(name)) for name in families), key=lambda pair: pair[0]
    )
    # Budgets outside and utilities inside, so that every utility at a budget
    # reuses the one solve the binary solvers keep; the rows are still
    # written family by family, each in grid order.
    rows_by_family: list[list[dict]] = [[] for _ in utilities]
    for eps_value in grid:
        eps, exp_eps = parse_eps(repr(eps_value))
        for family_rows, (name, u) in zip(rows_by_family, utilities):
            report = utility_gain(prior, eps, u, exp_eps=exp_eps)
            family_rows.append(
                {
                    "eps": repr(eps_value),
                    "utility_family": name,
                    "u_eps": repr(float(report.u_eps)),
                    "u_0": repr(float(report.u_0)),
                    "gain": repr(float(report.gain)),
                    "regime": report.solution_eps.regime.tag.value,
                    "num_signals": report.solution_eps.structure.num_signals,
                }
            )
    rows = [row for family_rows in rows_by_family for row in family_rows]
    fields = ["eps", "utility_family", "u_eps", "u_0", "gain", "regime", "num_signals"]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_sample(args) -> int:
    mechanism = decode_mechanism(read_json(args.mechanism))
    if args.count > MAX_SAMPLE_COUNT:
        raise ValidationError(
            f"count {args.count} is above the cap of {MAX_SAMPLE_COUNT} draws"
        )
    draws = sample_signal(mechanism, args.secret, args.y, args.seed, args.count)
    for label in draws:
        print(label)
    return 0


def cmd_oracle(args) -> int:
    from .oracle import binary_grid_oracle, random_structure_oracle

    prior = decode_prior(read_json(args.prior))
    eps, exp_eps = parse_eps(args.eps)
    u = _load_utility(args.utility)
    if args.mode == "grid":
        report = binary_grid_oracle(prior, eps, u, grid=args.grid, exp_eps=exp_eps)
    else:
        report = random_structure_oracle(
            prior,
            eps,
            u,
            trials=args.trials,
            max_signals=args.max_signals,
            seed=args.seed,
            exp_eps=exp_eps,
        )
    _emit({
        "best_utility": _jnum(report.best_utility),
        "solver_utility": _jnum(report.solver_utility),
        "trials": report.trials,
        "solver_dominates_all": report.solver_dominates_all,
        "best_structure": (
            encode_structure(report.best_structure)
            if report.best_structure is not None
            else None
        ),
    })
    return 0 if report.best_utility <= report.solver_utility + check_slack() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipd",
        description=(
            "Construct, verify, and benchmark privacy-constrained optimal "
            "information disclosure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="closed-form optimum for a binary secret")
    p.add_argument("prior", help="prior JSON file")
    p.add_argument("--eps", required=True, help="privacy budget, e.g. 0.7 or ln2")
    p.add_argument("--out-structure", help="write the structure JSON here")
    p.add_argument("--out-mechanism", help="write the mechanism JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("solve-general", help="LP optimum for any small secret")
    p.add_argument("prior")
    p.add_argument("--eps", required=True)
    p.add_argument(
        "--utility",
        required=True,
        help=f"one of {', '.join(BUILTIN_FAMILIES)} or rewards:<file>",
    )
    p.add_argument("--out-structure")
    p.add_argument("--out-mechanism")
    p.add_argument("--max-secrets", type=int, default=MAX_SECRETS)
    p.set_defaults(func=cmd_solve_general)

    p = sub.add_parser("verify", help="check a structure against a budget")
    p.add_argument("structure")
    p.add_argument("--eps", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("utility", help="expected utility of a structure")
    p.add_argument("structure")
    p.add_argument("--utility", required=True)
    p.set_defaults(func=cmd_utility)

    p = sub.add_parser("sweep", help="privacy-utility trade-off CSV")
    p.add_argument("prior")
    p.add_argument("--grid", required=True, help="budget grid start:stop:step")
    p.add_argument(
        "--utilities",
        default=",".join(BUILTIN_FAMILIES),
        help="comma-separated utility specs",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sample", help="draw signals from a mechanism")
    p.add_argument("mechanism")
    p.add_argument("--secret", required=True)
    p.add_argument("--y", type=int, required=True, choices=(0, 1))
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("oracle", help="brute-force challenges to the solvers")
    p.set_defaults(func=cmd_oracle)
    oracle_sub = p.add_subparsers(dest="mode", required=True)
    g = oracle_sub.add_parser("grid", help="lattice sweep of the binary optimum")
    g.add_argument("prior")
    g.add_argument("--eps", required=True)
    g.add_argument("--utility", required=True)
    g.add_argument("--grid", type=int, default=100)
    r = oracle_sub.add_parser("random", help="random private structures")
    r.add_argument("prior")
    r.add_argument("--eps", required=True)
    r.add_argument("--utility", required=True)
    r.add_argument("--trials", type=int, default=1000)
    r.add_argument("--max-signals", type=int, default=6)
    r.add_argument("--seed", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedSize as exc:
        _report_error(exc)
        return 3
    except (IpdError, OSError) as exc:
        _report_error(exc)
        return 2


def _report_error(exc: Exception) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())
