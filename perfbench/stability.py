"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

Usage, from the repository root:

    python3 perfbench/stability.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints per
workload and metric the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread: the interquartile distance as a share of the median,
next to a third of the metric's bound.  The last line is the whole table as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table: dict[str, dict] = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                return 1
            for name, metric in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items():
                values[name].append(metric["value"])
        table[workload] = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median if median else 0.0
            table[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": series}
            flag = "" if spread < bounds[name] / 3 else "  above a third of the bound"
            print(f"{workload:12s} {name:15s} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:.4f} (bound/3 {bounds[name] / 3:.4f}){flag}", flush=True)
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
