#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 it builds the default (untraced) binary and runs it once;
the last stdout line is the result with the end-to-end metrics. With
--trace 1 it first runs the untraced binary, then the `stats` build with
spans on, and adds the tracing overhead (untraced vs. traced ops/s) to the
traced run's per-layer metrics. Span records go to
<target dir>/perfbench-spans-<workload>.csv. The exit code is non-zero
when the build fails, a run times out, or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["handoff", "abort-churn", "service-fifo"]


def build(features):
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = ["cargo", "build", "--release", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if features:
        cmd += ["--features", features]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(target, "release", "perfbench")


def git_rev():
    try:
        out = subprocess.run(["git", "-C", HERE, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(exe, args, trace, extra=()):
    """Runs one measurement; returns (exit code, stdout lines, result)."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), *extra]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=120 + 3 * args.seconds)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} timed out", file=sys.stderr)
        return 1, [], None
    lines = out.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return out.returncode or 1, lines, None
    return out.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600 or args.seed < 0:
        parser.error("--seconds must be 1..600 and --seed non-negative")
    rev = ["--rev", git_rev()]

    exe = build(None)
    if exe is None:
        return 1
    code, lines, untraced = run(exe, args, 0, rev)
    if untraced is None:
        return code or 1
    if not args.trace:
        print("\n".join(lines))
        return code

    print("\n".join(lines[:-1]), file=sys.stderr)
    exe = build("stats")
    if exe is None:
        return 1
    target = os.path.dirname(os.path.dirname(exe))
    spans = os.path.join(target, f"perfbench-spans-{args.workload}.csv")
    traced_code, lines, traced = run(exe, args, 1, [*rev, "--spans", spans])
    if traced is None:
        return traced_code or 1
    plain = untraced["metrics"]["ops_per_s"]["value"]
    with_spans = traced["metrics"]["trace.ops_per_s"]["value"]
    traced["metrics"]["trace.untraced_ops_per_s"] = {"value": plain, "unit": "1/s"}
    traced["metrics"]["trace.overhead_frac"] = {
        "value": 1.0 - with_spans / plain, "unit": "ratio"}
    traced["correct"] = traced["correct"] and untraced["correct"]
    print("\n".join(lines[:-1]))
    print(f"metric trace.untraced_ops_per_s {plain} 1/s")
    print(f"metric trace.overhead_frac {1.0 - with_spans / plain} ratio")
    print(json.dumps(traced))
    return traced_code or code


if __name__ == "__main__":
    sys.exit(main())
