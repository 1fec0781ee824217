#!/usr/bin/env python3
"""Build and run the GuardNN host-path benchmark for one workload.

    python3 hostbench/run.py --workload serve_heavy --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The first call configures and builds
the `hostbench` program (and the GuardNN layer libraries it links) into
`.bench_build/`; later calls only rebuild what changed. The program's output is
passed through: the workload's figures by name and unit, then, as the last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`.
The metric names are checked against BENCHMARK.json (end-to-end ones for
`--trace 0`, per-layer ones for `--trace 1`). A traced run also writes its
spans as Chrome trace-event JSON under `.bench_out/`.

Exits non-zero, printing no result, when the sources are missing, the build
fails, the run fails a correctness check or does not finish in time.
Standard library only.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "hostbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(3)


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("hostbench", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("source tree incomplete: %s is missing" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "hostbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "hostbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    contract = load_contract()
    if not 1 <= args.seconds <= 600 or args.seed < 0:
        fail("--seconds must be 1..600 and --seed non-negative")
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(OUT_DIR, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stdout)
        fail("the run failed (exit code %d)" % proc.returncode)

    expected = {m["name"]: m["unit"]
                for m in contract["per_layer" if args.trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != expected:
        sys.stderr.write(proc.stdout)
        fail("result does not match BENCHMARK.json (missing: %s, extra or wrong unit: %s)"
             % (sorted(set(expected) - set(got)),
                sorted(k for k in got if expected.get(k) != got[k])))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
