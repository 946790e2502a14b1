"""Tiny-size self-test of the benchmark harness.

Usage, from the root of a checkout:

    python3 benchmarks/selftest.py

Runs every workload for one second, untraced and traced, and checks that
each run exits 0, prints every metric BENCHMARK.json names with its unit,
attempts at least one operation and fails none. The traced runs must count
exactly 12 and 320 LPs per solve at n=2 and n=3. Finally the benchmark must
refuse, without printing a result, to run in a directory that holds only
BENCHMARK.json and the benchmark's own files. The file name keeps it out of
pytest collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("benchmarks", "run.py")]
EXACT_COUNTS = {"general.lps_per_solve.n2": 12.0, "general.lps_per_solve.n3": 320.0}


def run_once(workload: str, trace: int, spec: dict) -> list[str]:
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    if "fail_ratio = 0 " not in done.stdout:
        problems.append(f"{where}: report does not give fail_ratio = 0")
    wanted = spec["per_layer" if trace else "end_to_end"]
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: metric {entry['name']} missing or malformed: {got}")
    if len(result["metrics"]) != len(wanted):
        problems.append(f"{where}: {len(result['metrics'])} metrics, expected {len(wanted)}")
    if trace:
        for name, count in EXACT_COUNTS.items():
            value = result["metrics"].get(name, {}).get("value")
            if value != count:
                problems.append(f"{where}: {name} = {value}, expected {count}")
    return problems


def bare_directory_refused() -> list[str]:
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_tmp")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            RUN + ["--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    problems = bare_directory_refused()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += run_once(workload, trace, spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
