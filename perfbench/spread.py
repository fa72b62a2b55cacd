#!/usr/bin/env python3
"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload desk-train --seeds 1-10 [--trace 0]

For every metric of the result lines it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile distance as
a share of the median, next to the metric's bound from ``spec.py``.
Runs are sequential, one process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    values = {}
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=os.path.dirname(HERE), capture_output=True, text=True, check=False)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        ok &= proc.returncode == 0 and result.get("correct", False)
        print(f"seed {seed}: exit {proc.returncode} correct {result.get('correct')}",
              flush=True)
        for name, m in result.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
    bounds = {name: bound for name, _, _, bound in spec.END_TO_END}
    print(f"{'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} bound")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        rel = (q3 - q1) / med if med else float("inf")
        print(f"{name:38s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} "
              f"{bounds.get(name, '')}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
