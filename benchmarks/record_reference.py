"""Record reference utilities for the n=3 general-lp inputs of the shipped seeds.

Usage, from the root of a checkout:

    python3 benchmarks/record_reference.py

Solves the n=3 operations of the first CYCLES general-lp cycles for the
tuning and held-out seeds and writes their utilities, keyed by input, to
benchmarks/reference_n3.json. The general-lp check compares a later
commit's answer on any of these inputs against the recorded one within
PATH_TOL, in addition to the random-structure oracle it applies to every
n=3 solve.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CYCLES = 12


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import run
    import workloads

    utilities = {}
    for seed in (run.TUNING_SEED, run.HELD_OUT_SEED):
        workload = workloads.GeneralLp(seed)
        for k in range(CYCLES):
            for op in workload.cycle(k):
                if op.tags["n"] == 3:
                    _, solution = op.run()
                    utilities[op.tags["key"]] = solution.utility
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    path = os.path.join(HERE, "reference_n3.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"commit": commit, "cycles": CYCLES, "utilities": utilities}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(utilities)} reference utilities to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
