#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload, or all of them.

    python3 perfbench/run.py --workload exact-sendcoef --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR (default `.bench_build`). One workload's output ends with
the JSON result line; `all` runs every workload, prints each one's
metrics, and writes perfbench/results/summary.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["exact-sendcoef", "exact-hwtopk-mp", "approx-twolevel", "serve-refresh"]
RESULTS = os.path.join(HERE, "results")


def build():
    """Builds the release binary; returns its path, or None on failure."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def run_one(exe, args, workload):
    """Runs one workload; returns (exit code, parsed result line)."""
    env = dict(os.environ,
               PERFBENCH_RUSTC=first_line(["rustc", "--version"]),
               PERFBENCH_COMMIT=first_line(["git", "rev-parse", "HEAD"]))
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--out-dir", RESULTS]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full")
    args = parser.parse_args()

    exe = build()
    if exe is None or not os.path.exists(exe):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.workload != "all":
        code, _ = run_one(exe, args, args.workload)
        return code

    summary = {}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(exe, args, workload)
        worst = worst or code
        summary[workload] = result
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print("\nsummary (%s metrics)" % ("per-layer" if args.trace else "end-to-end"))
    for workload, result in summary.items():
        if result is None:
            print("  %-16s no result" % workload)
            continue
        print("  %-16s correct=%s attempted=%d failed=%d"
              % (workload, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            print("    %-34s %18.6f %s" % (name, m["value"], m["unit"]))
    return worst


if __name__ == "__main__":
    sys.exit(main())
