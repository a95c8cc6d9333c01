"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload W [--runs 10] [--first-seed 1]
        [--seconds 20] [--trace 0] [--baseline]

For every metric it prints the median and the quartile distance as a share
of the median (statistics.quantiles(values, n=4)).  With --baseline the
medians are stored in perfbench/baseline.json, which every result record
carries as the baseline to compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    medians = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else 0.0
        medians[name] = median
        print(f"{name:28s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}")

    if args.baseline:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text()) if path.exists() else {}
        baseline.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "medians": medians,
            "runs": args.runs,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        }
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
