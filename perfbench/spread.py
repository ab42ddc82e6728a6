"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload verify --seeds 10 [--first-seed 1]

Runs ``run.py --trace 0`` once per seed, one run at a time, prints each
run's metrics and job latencies, and then for each end-to-end metric its median, quartiles and the quartile distance as a
share of the median, beside the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        report, result = run_once(args.workload, seed, bench["run_seconds"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())),
              flush=True)
        print("  jobs: " + " ".join(f"{v:.2f}" for v in report["job_latencies_s"].values()),
              flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for m in bench["end_to_end"]:
        med, q1, q3, share = spread(values[m["name"]])
        print(f"{args.workload:15s} {m['name']:12s} median {med:10.4f} {m['unit']:3s} "
              f"q1 {q1:10.4f} q3 {q3:10.4f} spread {share:6.3f} "
              f"bound {m['bound']} (target < {m['bound'] / 3:.3f})")


if __name__ == "__main__":
    main()
