#!/usr/bin/env python3
"""Run one workload of the mapml benchmark and print its metrics.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ``src/``. Each
metric is printed by name with its unit, then the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). The exit code is 0 only when every
correctness check passed. Results and, with ``--trace 1``, the recorded
spans are written under ``perfbench/out/``.

    python3 perfbench/run.py --describe              # workloads, metrics, predictions
    python3 perfbench/run.py --write-benchmark-json  # regenerate BENCHMARK.json
"""

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

import env  # noqa: E402  (no numpy import: BLAS threads are capped first)
import spec  # noqa: E402


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[name for name, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, for the benchmark's own tests")
    ap.add_argument("--describe", action="store_true")
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args(argv)
    if not (args.describe or args.write_benchmark_json or args.workload):
        ap.error("--workload is required")
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    return args


def _describe():
    for name, why in spec.WORKLOADS:
        print(f"workload {name}: {why}")
    for name, unit, better, bound in spec.END_TO_END:
        print(f"end-to-end {name} [{unit}, {better} is better, bound {bound}]")
    for name, unit, better, prediction in spec.PER_LAYER:
        print(f"per-layer {name} [{unit}, {better} is better] -> {prediction}")


def _report(args, environment, values, ledger, notes):
    units = {n: u for n, u, *_ in (spec.PER_LAYER if args.trace else spec.END_TO_END)}
    print("env " + " ".join(f"{k}={v}" for k, v in environment.items()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}")
    for name, unit in units.items():
        print(f"  {name:38s} {values[name]:>16.6g} {unit}")
    frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"  {'failed_frac':38s} {frac:>16.6g} ratio ({ledger.failed}/{ledger.attempted})")
    print(f"  samples {json.dumps(notes['samples'])}")
    print(f"  knn_predict p50, p99 (us) {json.dumps(notes['query_p50_p99_us'])}")
    gauge = notes["gauge"]
    print(f"  gauge median reading {gauge['median_s'] * 1e3:.4f} ms over {gauge['readings']} "
          f"readings; timings are scaled to {gauge['reference_s'] * 1e3:g} ms")
    print(f"  unscaled {json.dumps(notes['unscaled'])}")
    print(f"  checker mismatches {json.dumps(notes['checker_mismatches'])}  m={notes['m']}")
    for problem in ledger.problems[:20]:
        print(f"  FAILED: {problem}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.describe:
        _describe()
        return 0
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as f:
            json.dump(spec.benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mapml", "__init__.py")):
        print(f"error: no mapml package under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    env.limit_blas_threads()
    sys.path.insert(0, src)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    ledger = workloads.Ledger()
    try:
        values, notes, tracer = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, OUT, ledger)
    except Exception as exc:  # an operation raised: report it as failed, no metrics
        traceback.print_exc()
        ledger.record([f"raised {exc!r}"])
        print(json.dumps({"correct": False, "attempted": ledger.attempted,
                          "failed": ledger.failed, "metrics": {}}))
        return 1
    environment = env.describe()
    metrics = _report(args, environment, values, ledger, notes)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}"
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"spans_{tag}.json"))
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    with open(os.path.join(OUT, f"BENCH_{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(dict(result, env=environment, notes=notes, problems=ledger.problems),
                  f, indent=2)
        f.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
