#!/usr/bin/env python3
"""Builds the profiler from source and runs the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lattice_heavy --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

The build goes to $CARGO_TARGET_DIR (default .bench_build). A single
workload runs in its own process and its last stdout line is the JSON
result; the exit code is non-zero on any result mismatch. See README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the benchmark and the daemon."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no profiler sources next to perfbench/")
    # Compiler temporaries stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, env=env)


def run_one(out, workload, seed, seconds, trace, capture):
    """Runs one workload in its own process group, so the daemon it starts
    is reaped with it even on a timeout."""
    command = [os.path.join(out, "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace),
               "--daemon", os.path.join(out, "muds", "tools", "muds_serve"),
               "--expected", os.path.join(HERE, "expected.json"),
               "--out-dir", out]
    child = subprocess.Popen(command, stdout=subprocess.PIPE if capture
                             else None, text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit("perfbench: %s timed out" % workload)
    return child.returncode, stdout


def run_all(out, seed, seconds, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    results = {}
    status = 0
    for workload in workloads:
        code, stdout = run_one(out, workload, seed, seconds, trace, True)
        status = status or code
        results[workload] = json.loads(stdout.strip().splitlines()[-1])
    names = list(results[workloads[0]]["metrics"])
    print("%-34s" % "metric" + "".join("%18s" % w for w in workloads))
    for name in names:
        unit = results[workloads[0]]["metrics"][name]["unit"]
        cells = "".join("%18.6g" % results[w]["metrics"][name]["value"]
                        for w in workloads)
        print("%-34s%s %s" % (name, cells, unit))
    print("%-34s" % "failed / attempted" + "".join(
        "%18s" % ("%d / %d" % (results[w]["failed"], results[w]["attempted"]))
        for w in workloads))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out = build_dir()
    try:
        build(out)
    except subprocess.CalledProcessError as error:
        sys.exit("perfbench: build failed: %s" % error)
    if args.workload == "all":
        return run_all(out, args.seed, args.seconds, args.trace)
    code, _ = run_one(out, args.workload, args.seed, args.seconds,
                      args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
