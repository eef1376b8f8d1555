#!/usr/bin/env bash
# Line-coverage gate over the tier-1 test suite (see docs/TESTING.md).
#
#   scripts/coverage_gate.sh [build-dir]       # default: build-cov
#
# Configures an instrumented build (-DRPV_COVERAGE=ON), runs rpv_tests,
# aggregates per-subsystem line coverage from gcov's JSON output, and fails
# when a subsystem drops below its floor. Needs only gcov (ships with gcc)
# and the python3 standard library — no gcovr/lcov install.
#
# The floors are ratchets against regressions, set a few points below the
# coverage measured when the gate was introduced — not aspirations. Raise a
# floor when a subsystem's coverage durably improves; never lower one to
# make a PR pass.
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-cov}"

cmake -S . -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Debug -DRPV_COVERAGE=ON >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target rpv_tests
(cd "$BUILD_DIR" && ./tests/rpv_tests --gtest_brief=1)

# One JSON per object file, emitted next to its .gcda. Test objects are
# included on purpose: header-inline code (e.g. sim/event_queue.hpp)
# instantiates in the test translation units; the report below filters to
# src/ sources, so test code itself is never counted.
find "$BUILD_DIR" -name '*.gcda' -print0 | while IFS= read -r -d '' f; do
  (cd "$(dirname "$f")" &&
   gcov --json-format "$(basename "$f")" >/dev/null 2>&1) || true
done

python3 - "$BUILD_DIR" <<'PY'
import collections
import gzip
import json
import pathlib
import sys

build = pathlib.Path(sys.argv[1])
FLOORS = {"src/sim": 90.0, "src/bond": 80.0, "src/radiomap": 90.0, "src/rtp": 95.0}

# A line is covered if ANY translation unit executed it; union across the
# per-object gcov reports before computing percentages.
hit = collections.defaultdict(set)
total = collections.defaultdict(set)
for gz in build.rglob("*.gcov.json.gz"):
    data = json.loads(gzip.open(gz).read())
    for f in data.get("files", []):
        idx = f["file"].find("src/")
        if idx < 0:
            continue
        rel = f["file"][idx:]
        sub = "/".join(rel.split("/")[:2])
        if sub not in FLOORS:
            continue
        for line in f["lines"]:
            key = (rel, line["line_number"])
            total[sub].add(key)
            if line["count"] > 0:
                hit[sub].add(key)

ok = True
print("coverage gate (tier-1 line coverage):")
for sub, floor in sorted(FLOORS.items()):
    t, h = len(total[sub]), len(hit[sub])
    pct = 100.0 * h / t if t else 0.0
    below = pct < floor
    ok = ok and not below
    mark = "FAIL" if below else "  ok"
    print(f"  {mark} {sub:14s} {pct:6.2f}%  (floor {floor:.0f}%, {h}/{t} lines)")
if not ok:
    print("coverage gate: FAILED")
    sys.exit(1)
print("coverage gate: PASSED")
PY
