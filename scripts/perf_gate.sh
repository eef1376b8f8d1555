#!/usr/bin/env bash
# Perf-regression gate: a same-host A/B of this checkout against <base-ref>.
#
# Checks <base-ref> out in a git worktree, then runs five pairs from each
# tree on one host, alternating which tree goes first: perfbench
# (`perfbench/run.py --trace 0`, pair k at seed k) on the fleet gate point
# `fleet_urban64` (64 GCC sessions on one urban deployment) and on the sat
# arms `bond_sat_storm`, and the tree's own `bench_core_queue`. perfbench
# runs at one worker and states its times at a reference host speed it
# measures around each piece of work, and each pair runs back to back, so a
# ratio compares like with like. The queue bench's `steady` row prices
# sim::EventQueue alone: it tells "the event queue regressed" apart from "a
# handler got slower".
#
# A row's ratio is the median over the pairs of this tree's value over the
# base's. The gate fails when the ratio of perfbench's sim_events_per_s or
# realtime_factor on either workload, or of the queue row's events/s, falls
# below FLOOR. Only throughput is gated: the golden pins and the
# byte-identity tests cover simulation results.
#
# Usage: scripts/perf_gate.sh <base-ref>
# The base worktree and its builds go under $TMPDIR and are removed at
# exit; this tree builds into its own .bench_build/.
set -euo pipefail

[[ $# -eq 1 ]] || { echo "usage: scripts/perf_gate.sh <base-ref>" >&2; exit 2; }
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base_sha="$(git -C "$repo" rev-parse --verify "$1^{commit}")"

work="$(mktemp -d "${TMPDIR:-/tmp}/perf_gate.XXXXXX")"
trap 'git -C "$repo" worktree remove --force "$work/base" 2>/dev/null || true
      rm -rf "$work"' EXIT
git -C "$repo" worktree add --quiet --detach "$work/base" "$base_sha"

for tree in "$work/base" "$repo"; do
  echo "perf_gate: building bench_core_queue in $tree" >&2
  cmake -S "$tree" -B "$tree/.bench_build/gate" -DCMAKE_BUILD_TYPE=Release \
    >>"$work/build.log" 2>&1 &&
    cmake --build "$tree/.bench_build/gate" -j "$(nproc)" \
      --target bench_core_queue >>"$work/build.log" 2>&1 ||
    { tail -n 40 "$work/build.log" >&2; exit 2; }
done

python3 - "$work/base" "$repo" <<'PY'
import json, statistics, subprocess, sys

# Below the worst row of three A/A runs on a 4-vCPU VM and above the
# fleet rows of a ~25% per-core slowdown (EXPERIMENTS.md, "Perf gate").
FLOOR = 0.85
PAIRS = 5
trees = {"base": sys.argv[1], "this": sys.argv[2]}


def run(side, argv):
    out = subprocess.run(argv, cwd=trees[side], capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:] + out.stdout[-4000:])
        sys.exit(f"perf_gate: {' '.join(argv)} failed in the {side} tree "
                 f"(exit {out.returncode})")
    return out.stdout


def perfbench(side, workload, seed):
    # BENCHMARK.json's run_seconds; the workloads end well inside it.
    line = run(side, [sys.executable, "perfbench/run.py", "--workload",
                      workload, "--seed", str(seed), "--seconds", "40",
                      "--trace", "0"]).strip().splitlines()[-1]
    metrics = json.loads(line)["metrics"]
    return {f"{workload} {name}": metrics[name]["value"]
            for name in ("sim_events_per_s", "realtime_factor")}


def queue(side, _seed):
    out = run(side, [".bench_build/gate/bench/bench_core_queue"])
    for row in out.splitlines():
        cells = row.split()
        if cells and cells[0] == "steady":
            return {"bench_core_queue steady events/s": float(cells[3])}
    sys.exit("perf_gate: bench_core_queue printed no steady row")


benches = [
    lambda side, seed: perfbench(side, "fleet_urban64", seed),
    lambda side, seed: perfbench(side, "bond_sat_storm", seed),
    queue,
]
values = {"base": {}, "this": {}}
for k in range(PAIRS):
    order = ("base", "this") if k % 2 == 0 else ("this", "base")
    for bench in benches:
        for side in order:
            for row, v in bench(side, k).items():
                values[side].setdefault(row, []).append(v)
    print(f"perf_gate: pair {k + 1}/{PAIRS} done ({order[0]} first)", flush=True)

failed = []
for row, base in values["base"].items():
    pairs = [t / b if b > 0 else 0.0 for t, b in zip(values["this"][row], base)]
    ratio = statistics.median(pairs)
    print(f"perf_gate: {row:34} base {statistics.median(base):10.4g}  "
          f"this {statistics.median(values['this'][row]):10.4g}  "
          f"ratio {ratio:.3f} (pairs {' '.join(f'{r:.2f}' for r in pairs)})")
    if ratio < FLOOR:
        failed.append(f"{row} at {ratio:.3f}x")
for f in failed:
    print(f"perf_gate: FAIL {f}, below the {FLOOR:.2f}x floor")
if failed:
    sys.exit(1)
print(f"perf_gate: PASS (every ratio at or above {FLOOR:.2f}x)")
PY
