#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that:
  * unknown workloads and negative seeds are rejected without a result line;
  * every metric name in BENCHMARK.json matches [A-Za-z0-9_.-]+ and the
    benchmark's workload list matches BENCHMARK.json;
  * a tiny-size run of each workload, untraced and traced, prints exactly
    the end-to-end / per-layer metrics named in BENCHMARK.json, each with its
    unit, passes its output checks, and prints the same output digest in
    both modes;
  * the layer replays are deterministic for a fixed seed.
Exits non-zero on the first failure.
"""
import json
import math
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def bench(*args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True)


def result_of(out):
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def digest_of(out):
    for line in out.stdout.splitlines():
        if line.startswith("digest "):
            return line.split()[-1]
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for name in [*e2e, *layers, *(w["name"] for w in spec["workloads"])]:
        check(NAME.fullmatch(name) is not None, f"name {name!r} is well formed")
    check(tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS,
          "run.py workloads match BENCHMARK.json")

    bad = bench("--workload", "no_such_workload", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    check(bad.returncode != 0 and result_of(bad) is None,
          "unknown workload rejected")
    bad = bench("--workload", run.WORKLOADS[0], "--seed", "-1",
                "--seconds", "1", "--trace", "0")
    check(bad.returncode != 0 and result_of(bad) is None,
          "negative seed rejected")

    for workload in run.WORKLOADS:
        digests = []
        for trace, expected in ((0, e2e), (1, layers)):
            out = bench("--workload", workload, "--seed", "3", "--seconds", "5",
                        "--trace", str(trace), "--tiny")
            res = result_of(out)
            check(out.returncode == 0 and res is not None and res["correct"],
                  f"tiny {workload} trace {trace} passes its checks")
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"tiny {workload} trace {trace} result keys")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == expected,
                  f"tiny {workload} trace {trace} prints every metric with its unit")
            check(all(math.isfinite(v["value"]) for v in res["metrics"].values()),
                  f"tiny {workload} trace {trace} values are finite")
            digests.append(digest_of(out))
        check(digests[0] is not None and digests[0] == digests[1],
              f"tiny {workload} digest is the same traced and untraced")

    run.build()
    replay = subprocess.run([str(run.BINARY), "--replay-check", "--seed", "5"],
                            cwd=ROOT, capture_output=True, text=True)
    check(replay.returncode == 0, "layer replays are deterministic")
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
