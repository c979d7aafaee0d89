#!/usr/bin/env python3
"""Build gcbench from the sources in this checkout, then run one workload.

    python3 gcbench/run.py --workload vt-abcast --seed 1 --seconds 20 --trace 0

Run it from the root of the checkout. The build goes to
$CARGO_TARGET_DIR/gcbench (default .bench_build/gcbench); build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. With
--trace 1 the recorded spans are written to <build>/traces/. Exits 2
without a result if the build fails, 3 if the run overran its time limit,
otherwise with the benchmark's own status (0 = correctness gate passed).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wall-abcast", "vt-abcast", "vt-churn")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build; returns the binary path or None."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(["cmake", "-S", HERE, "-B", build_dir], **quiet).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs], **quiet).returncode != 0:
        return None
    binary = os.path.join(build_dir, "gcbench")
    return binary if os.path.exists(binary) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "gcbench")
    binary = build(build_dir)
    if binary is None:
        print("gcbench: build failed", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"gcbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
