#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the simulator and the
benchmark program from source (Release, into .bench_build/perfbench), then
runs one workload in one process at one worker. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer ledger with
--trace 1. Exits non-zero when an output check fails, and without a result
line when the arguments are bad or the sources are missing.

Extra flag for the self-tests: --tiny shrinks every workload to smoke size.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_campaign", "fleet_urban64", "bond_sat_storm")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-work"
BINARY = BUILD_DIR / "rpv_perfbench"
# The measuring process must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})")
    if args.seed < 0:
        fail(f"--seed must be >= 0, got {args.seed}")
    if args.seconds <= 0:
        fail(f"--seconds must be > 0, got {args.seconds}")
    return args


def build():
    """Configures once, then builds incrementally; logs go to stderr."""
    sources = ROOT / "src"
    if not sources.is_dir() or not any(sources.rglob("*.cpp")):
        fail(f"no simulator sources under {sources}", code=3)
    if shutil.which("cmake") is None:
        fail("cmake not found", code=3)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def git_describe():
    """`git describe`, or a digest of src/ where the checkout is no repo."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:12]


def main(argv):
    args = parse_args(argv)
    try:
        build()
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}", code=3)
    work_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--git-describe", git_describe()]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", code=1)
    finally:
        # Keep the span files; run artifacts are scratch.
        for child in work_dir.glob("*"):
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
