#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 0] [--seconds S]
                                [--trace 0] [WORKLOAD ...]

Runs perfbench/run.py once per seed and workload (sequentially, so runs do
not contend), then prints per metric the median, the first and third
quartiles (statistics.quantiles(n=4)) and the interquartile distance as a
share of the median, next to the metric's bound from BENCHMARK.json. Run it
from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("workloads", nargs="*",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst = 0.0
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {out.returncode}\n"
                      f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
                return 1
            result = json.loads(last)
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs not correct")
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({args.seeds} seeds)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            if bound is not None:
                worst = max(worst, share / bound)
            print(f"  {name:28s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"iqr/median {share:.4f}"
                  + (f"  bound {bound}" if bound is not None else ""))
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
