#!/usr/bin/env python3
"""Self-tests of the gcbench benchmark.

    python3 gcbench/selftest.py

Run from the root of the checkout. Checks, through gcbench/run.py:
  * smoke: a tiny run of every workload, untraced and traced, passes the
    correctness gate and reports every metric BENCHMARK.json names;
  * repeatability: two vt-abcast runs with the same seed report identical
    packets_per_delivery and latency percentiles, and another seed changes
    them.
Exits 0 when every check passed.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
# Metrics that are a pure function of the seed under virtual time.
EXACT = ("packets_per_delivery", "latency_p50_us", "latency_p90_us", "deliveries_per_s")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(w["name"], 1, 1, trace)
            what = f"smoke {w['name']} --trace {trace}"
            if result is None:
                check(False, f"{what}: no result (exit {code}): {err.strip()[-300:]}")
                continue
            missing = [m["name"] for m in spec[key] if m["name"] not in result["metrics"]]
            check(code == 0 and result["correct"] and result["failed"] == 0 and not missing,
                  f"{what}: exit {code}, correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed, missing {missing}")

    runs = [run("vt-abcast", seed, 2, 0)[1] for seed in (5, 5, 6)]
    if any(r is None for r in runs):
        check(False, "repeatability: a vt-abcast run gave no result")
    else:
        same, again, other = ({k: r["metrics"][k]["value"] for k in EXACT} for r in runs)
        check(same == again, f"repeatability: same seed gives identical {sorted(EXACT)}: {same} vs {again}")
        check(same != other, f"repeatability: another seed changes them: {same} vs {other}")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
