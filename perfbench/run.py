#!/usr/bin/env python3
"""Build and run svbench's host-performance benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (a CMake package over ../src) into $CARGO_TARGET_DIR
(default .bench_build), runs the svbench_perf program and relays its
output; the last line of standard output is the JSON result. In a
traced run it also checks the span file svbench_perf wrote: every parent
id resolves and every child span lies within its parent. A run whose
metric names differ from BENCHMARK.json's, or whose checks fail, exits
non-zero.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("detailed_sweep", "cold_start", "invocation_replay")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then (re)build svbench_perf. Returns its path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "svbench_perf",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(cmake_dir, "svbench_perf")


def check_spans(path):
    """Problems with the span file at path (empty list when valid)."""
    with open(path) as f:
        spans = json.load(f)["spans"]
    by_id = {s["id"]: s for s in spans}
    problems = []
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} ({s['name']}) ends before "
                            "it starts")
        if s["parent"] == 0:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append(f"span {s['id']} ({s['name']}) has unknown "
                            f"parent {s['parent']}")
        elif s["start"] < parent["start"] or s["end"] > parent["end"]:
            problems.append(f"span {s['id']} ({s['name']}) lies outside its "
                            f"parent {parent['id']} ({parent['name']})")
    return problems


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None."""
    path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    # A terminated run must not leave svbench_perf behind: SystemExit
    # unwinds through subprocess.run, which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    work_dir = os.path.join(build_dir, "work")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--golden-dir", os.path.join(HERE, "golden")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        log(f"svbench_perf exited with {proc.returncode}")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        log("svbench_perf printed no JSON result")
        return 1
    for line in lines[:-1]:
        print(line)

    problems = []
    if args.trace:
        trace_files = [l.split(" ", 1)[1] for l in lines
                       if l.startswith("trace-file ")]
        if not trace_files:
            problems.append("no span file reported")
        else:
            problems += check_spans(trace_files[0])
            if not problems:
                print(f"trace check: {trace_files[0]} is well formed")
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        log("metric names differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ expected)}")
        return 1
    for p in problems:
        print(f"VIOLATION: trace: {p}")
    if problems:
        result["correct"] = False
        result["failed"] = min(result["attempted"], result["failed"] + 1)
        print(json.dumps(result), flush=True)
    else:
        print(lines[-1], flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
