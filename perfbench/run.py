#!/usr/bin/env python3
"""Build the benchmark harness and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload static-random --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds the library (src/) and the harness into
.bench_build/perfbench; later runs only bring that build up to date.  Build
output goes to stderr, so the last line of stdout is the harness's JSON
result line.  A traced run (--trace 1) also writes its spans and per-layer
table under .bench_build/perfbench-out/.  The result line must carry exactly
the metrics BENCHMARK.json declares for the mode; anything else is an error.

Exit codes: 0 ok; 1 a wrong forest; 5 a failed or rejected operation (the
result line still prints for 1 and 5); 2 bad usage; 3 the run failed; 4 the
run exceeded its deadline.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("static-random", "dynamic-batches", "serve-rw")
# A run must end within 180 s; leave room for start-up and teardown.
RUN_DEADLINE_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def jobs():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; "
             "run from a full checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(jobs()),
                    "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, target)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the harness arithmetic tests")
    args = ap.parse_args()

    try:
        if args.selftest:
            sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
        if args.workload is None or args.seed is None or args.seconds is None:
            fail("--workload, --seed and --seconds are required")
        expected = declared_metrics(args.trace)
        exe = build("perfbench")
    except (OSError, subprocess.CalledProcessError, ValueError, KeyError) as e:
        fail(f"set-up failed: {e}", 3)

    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.monotonic()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_DEADLINE_S} s", 4)
    lines = proc.stdout.splitlines()
    # 1 (a wrong forest) and 5 (a failed operation) still print a result.
    if proc.returncode not in (0, 1, 5) or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} failed with exit code {proc.returncode}", 3)

    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        sys.stderr.write(proc.stdout)
        fail(f"result metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, or units differ", 3)
    if proc.returncode == 0 and (result["failed"] or not result["correct"]):
        sys.stderr.write(proc.stdout)
        fail("the result reports failures but the harness exited 0", 3)
    if any(not isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
        sys.stderr.write(proc.stdout)
        fail("a metric has no value (null): the run did not measure it", 3)
    for line in lines[:-1]:
        print(line)
    print(f"wall {time.monotonic() - started:.1f} s")
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
