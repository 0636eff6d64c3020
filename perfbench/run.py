#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library and the benchmark are built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr.  The benchmark's own output goes to stdout, and its last line
is the result JSON.  Traced runs write their spans to
<build dir>/traces/<workload>-seed<n>.json.  The exit code is the
benchmark's: 0 when every correctness check held, non-zero otherwise or when
the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(target="perfbench"):
    """Configures (once) and builds `target`; returns the build directory."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["kv_uncontended", "kv_hot_contended", "sim_numa_kv"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
