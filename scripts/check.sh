#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite, then
# repeat the suite under AddressSanitizer + UndefinedBehaviorSanitizer, and
# finally run the parallel-execution tests under ThreadSanitizer.
#
# Usage: scripts/check.sh [--no-sanitize]
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
sanitize=1
[[ "${1:-}" == "--no-sanitize" ]] && sanitize=0

echo "== plain build + ctest =="
cmake -S "$repo" -B "$repo/build" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$repo/build" -j "$jobs"
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"

if [[ "$sanitize" == 1 ]]; then
  echo "== ASan+UBSan build + ctest =="
  cmake -S "$repo" -B "$repo/build-san" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DRPV_SANITIZE=address,undefined >/dev/null
  cmake --build "$repo/build-san" -j "$jobs"
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir "$repo/build-san" --output-on-failure -j "$jobs"

  echo "== TSan build + exec and fleet tests =="
  # TSan is incompatible with ASan/UBSan, so it gets its own tree; only the
  # suites that run parallel_for_index on several workers (campaigns, and the
  # fleet's per-epoch shard loop at 8 workers) are worth the ~10x slowdown.
  cmake -S "$repo" -B "$repo/build-tsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DRPV_SANITIZE=thread >/dev/null
  cmake --build "$repo/build-tsan" -j "$jobs" --target rpv_tests
  TSAN_OPTIONS=halt_on_error=1 "$repo/build-tsan/tests/rpv_tests" \
    --gtest_filter='ThreadPool*:ParallelFor*:CampaignEngine*:RunArtifact*:FleetEngine*'
fi

echo "All checks passed."
