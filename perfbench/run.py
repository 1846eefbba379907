#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_ycsb --seed 1 --seconds 32 \
        --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
The benchmark binary prints human-readable lines and, last, one JSON object
with the keys correct, attempted, failed and metrics; this script relays it,
checks it against BENCHMARK.json, and exits non-zero when the build fails, a
correctness check fails or a metric is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# glibc's malloc backs its heap with transparent huge pages (glibc >= 2.35;
# a no-op elsewhere). On a shared host, page walks over the large heaps
# otherwise make wall time swing with the co-tenants' memory traffic.
MALLOC_TUNABLE = "glibc.malloc.hugetlb=1"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(target, "perfbench")
    binary = os.path.join(build_dir, "e2e_bench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "e2e_bench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return binary


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    env = dict(os.environ)
    tunables = [t for t in env.get("GLIBC_TUNABLES", "").split(":") if t]
    env["GLIBC_TUNABLES"] = ":".join(tunables + [MALLOC_TUNABLE])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("benchmark timed out")
        return 1
    lines = out.strip().splitlines()
    if not lines:
        log("benchmark printed nothing (exit %d)" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line is not JSON (exit %d)" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)

    expected = expected_metrics(args.trace)
    missing = sorted(expected - set(result["metrics"])) if expected else []
    if missing:
        log("missing metrics: " + " ".join(missing))
        return 1
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
