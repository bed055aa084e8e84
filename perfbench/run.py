#!/usr/bin/env python3
"""Engine benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the engine
from the repository's src/ tree) and runs one workload:

    python3 perfbench/run.py --workload chain_sharded --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end_to_end
metrics of BENCHMARK.json, --trace 1 the per_layer ones; the names and units
are checked against BENCHMARK.json before the line is printed. Any failure
(build, wrong results, a metric set that does not match) exits non-zero
without that line.

    python3 perfbench/run.py --all --seed 1 --seconds 30

runs every workload of BENCHMARK.json in turn (exit status: the first
failure's), and

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own unit tests.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures and builds the benchmark; returns the build directory."""
    out = build_dir()
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", str(cpu_count())],
    ]
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except FileNotFoundError:
            log(f"'{cmd[0]}' not found")
            sys.exit(2)
        if res.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(2)
    return out


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared(spec, trace):
    """Metric name -> unit that a run with this --trace must report."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(result, spec, trace):
    """Returns a list of problems with one run's final JSON object."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    want = declared(spec, trace)
    got = result["metrics"]
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} is not declared in BENCHMARK.json")
    for name in sorted(set(want) - set(got)):
        problems.append(f"metric {name} is missing")
    for name, m in got.items():
        if not NAME_RE.match(name):
            problems.append(f"metric name {name!r} has illegal characters")
        if name in want and m.get("unit") != want[name]:
            problems.append(f"metric {name} unit {m.get('unit')!r} != "
                            f"{want[name]!r}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    return problems


def run(args):
    spec = load_benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r} (have {', '.join(names)})")
        return 2
    binary = os.path.join(build(), "stateslice_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.time()
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        log(f"benchmark exited with {res.returncode}")
        return res.returncode or 1
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print("\n".join(lines), file=sys.stderr)
        log("no JSON result line")
        return 4
    problems = check_result(result, spec, bool(args.trace))
    if problems:
        print("\n".join(lines), file=sys.stderr)
        for p in problems:
            log(p)
        return 5
    print("\n".join(lines[:-1]))
    print(f"run wall time: {time.time() - start:.1f} s")
    print(json.dumps(result))
    return 0


def self_test():
    out = build()
    res = subprocess.run([os.path.join(out, "perfbench_stats_test")])
    if res.returncode != 0:
        return res.returncode
    env = dict(os.environ, PERFBENCH_BUILD_DIR=out)
    res = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(BENCH_DIR, "tests"), "-p", "test_*.py", "-v"],
        env=env)
    return res.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in BENCHMARK.json")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.all:
        status = 0
        for w in load_benchmark_json()["workloads"]:
            args.workload = w["name"]
            status = status or run(args)
        return status
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
