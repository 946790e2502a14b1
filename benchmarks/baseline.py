"""Measure the baseline of the current commit and check the benchmark is steady.

Usage, from the root of a checkout:

    python3 benchmarks/baseline.py [--seeds 10] [--out benchmarks/baseline.json]

Runs the BENCHMARK.json command on every workload once per seed (seeds 1 to
N, untraced) and once traced on the tuning seed. For each end-to-end metric
it records the median, the quartiles and the spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median. A spread must stay below a third of the metric's
bound; ``setup_s`` is exempt, as only its median is compared between runs.
The traced runs' full per-layer tables are stored alongside. Exits 1 when a
run fails or a spread is too wide.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    import run

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"runs_per_workload": args.seeds, "run_seconds": spec["run_seconds"],
                "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        started = time.perf_counter()
        for seed in range(1, args.seeds + 1):
            result = run_once(spec, workload, seed, 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / statistics.median(series)
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            summary[name] = {"median": statistics.median(series), "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds[name], "values": series}
            print(f"{workload:13s} {name:16s} median={statistics.median(series):<12.6g} "
                  f"spread={spread:.4f} bound={bounds[name]} {'ok' if ok else 'TOO WIDE'}")
        with open(os.path.join(run.OUT_DIR, f"{workload}-seed{run.TUNING_SEED}-trace0.json"),
                  encoding="utf-8") as fh:
            stamp = json.load(fh)["stamp"]
        traced = run_once(spec, workload, run.TUNING_SEED, 1)
        with open(os.path.join(run.OUT_DIR, f"{workload}-seed{run.TUNING_SEED}-trace1.json"),
                  encoding="utf-8") as fh:
            table = json.load(fh)["metrics"]
        steady &= failed == 0 and traced["failed"] == 0
        print(f"{workload:13s} fail_ratio={failed / attempted:g} ({failed}/{attempted}), "
              f"{time.perf_counter() - started:.0f} s")
        baseline["workloads"][workload] = {
            "stamp": stamp,
            "fail_ratio": failed / attempted,
            "attempted": attempted,
            "end_to_end": summary,
            "per_layer_seed1": table,
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}; " + ("steady" if steady else "NOT steady"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
