#!/usr/bin/env python3
"""End-to-end JUST benchmark: builds justbench from the repository's source
and runs one workload.

    python3 perfbench/run.py --workload order_cold --seed 1 --seconds 20 --trace 0

The last line of standard output is the run's JSON result; the report goes
to standard error. With --trace 1 the metrics are the per-layer ones and the
spans are written to .bench_build/traces/. Repeat mode runs the same seed
several times, prints each metric's median and quartiles, and fails when a
count that must repeat exactly (result rows, rows scanned, key ranges)
drifts:

    python3 perfbench/run.py --workload order_cold --seed 1 --seconds 20 \\
        --trace 0 --repeat 3

Everything built or written stays under .bench_build/ in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "justbench")
WORKLOADS = ("order_cold", "traj_cold", "stream_mixed")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds justbench; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("engine sources (src/) not found next to perfbench/; "
            "run from a full checkout")
        return False
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            log(f"{tool} not found")
            return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "justbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(args, sha):
    """Runs the binary once; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-root", os.path.join(BUILD_ROOT, "runs"), "--git-sha", sha]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def parse(lines):
    """Returns (result dict, counts dict) from the binary's stdout."""
    counts = {}
    for line in lines:
        if line.startswith("counts "):
            counts = json.loads(line[len("counts "):])
    return json.loads(lines[-1]), counts


def repeat(args, sha):
    results, all_counts = [], []
    for i in range(args.repeat):
        code, lines = run_once(args, sha)
        if code != 0 or not lines:
            log(f"run {i + 1} failed with exit code {code}")
            return 1
        result, counts = parse(lines)
        results.append(result)
        all_counts.append(counts)
        log(f"run {i + 1}/{args.repeat}: correct={result['correct']}")
    log(f"{args.workload} seed {args.seed}, {args.repeat} runs: "
        "median [q1, q3] (q3-q1)/median")
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        spread = (q3 - q1) / med if med else 0.0
        log(f"  {name:32s} {med:14.6g} [{q1:.6g}, {q3:.6g}] {unit:6s} "
            f"{spread:.3f}")
    drift = [k for k in sorted(set().union(*all_counts))
             if len({c.get(k) for c in all_counts}) > 1]
    for key in drift:
        log(f"  COUNT DRIFT {key}: {[c.get(key) for c in all_counts]}")
    if not drift:
        log(f"  counts: {len(all_counts[0])} repeat exactly")
    summary = {"correct": all(r["correct"] for r in results) and not drift,
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "metrics": {name: {"value": statistics.median(
                   r["metrics"][name]["value"] for r in results),
                   "unit": results[0]["metrics"][name]["unit"]}
                   for name in results[0]["metrics"]}}
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs of the same seed (repeat mode when > 1)")
    args = parser.parse_args()
    if args.seconds < 1 or args.repeat < 1:
        log("--seconds and --repeat must be positive")
        return 2
    if not build():
        return 2
    sha = git_sha()
    if args.repeat > 1:
        return repeat(args, sha)
    code, lines = run_once(args, sha)
    for line in lines:
        print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
