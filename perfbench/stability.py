"""Run one workload k times and print the spread of every metric.

    python3 perfbench/stability.py --workload churn_16k --runs 10 --seconds 20

Each run is a fresh ``run.py`` process; run i (from 1) uses seed i.  For
every metric the script prints the median and quartiles of the k values, as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
quartile distance as a share of the median.  It does so for the raw and the
host-speed-corrected figure, and marks which of the two is the metric.  It
also prints the share of failed operations, which must be identical in
every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least two runs for quartiles")

    runs = []
    for seed in range(1, args.runs + 1):
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        detail = json.loads(next(ln for ln in lines if ln.startswith("detail "))[7:])
        final = json.loads(lines[-1])
        runs.append((seed, detail, final))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in final["metrics"].items()
        ), flush=True)

    shares = {r[2]["failed"] / r[2]["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':<30} {'figure':<10} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, first in runs[0][1]["metrics"].items():
        for figure in ("raw", "corrected"):
            values = [r[1]["metrics"][name][figure] for r in runs]
            median, q1, q3, share = spread(values)
            mark = "*" if first["used"] in (figure, "exact") else " "
            print(
                f"{name:<30} {figure:<9}{mark} {median:>14.6g} {q1:>14.6g} "
                f"{q3:>14.6g} {100 * share:>7.2f}%"
            )
            if first["used"] == "exact":
                break
    return 0


if __name__ == "__main__":
    sys.exit(main())
