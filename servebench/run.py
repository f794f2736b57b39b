#!/usr/bin/env python3
"""Serving benchmark: builds the driver from source and runs one workload.

Run from the repository root:

    python3 servebench/run.py --workload replay-grid --seed 1 --seconds 30 --trace 0

Workloads: replay-grid, durable-grid, online-city (see servebench/NOTES.md).
The build goes to $CARGO_TARGET_DIR/servebench when that variable names a
directory inside the repository, else to .bench_build/servebench. Work
files, span dumps and one JSON result file per invocation go to
<build root>/servebench-out.

Standard output: `info` lines, a `host` line, and as its last line the
result {"correct", "attempted", "failed", "metrics"}: every end-to-end metric
with --trace 0, every per-layer metric with --trace 1. Exits non-zero,
without a result, when the repository sources are missing or the build or
the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("replay-grid", "durable-grid", "online-city")
RUN_TIMEOUT_S = 170


def log(message):
    print("servebench: " + message, file=sys.stderr, flush=True)


def build_root(repo):
    configured = os.environ.get("CARGO_TARGET_DIR", "")
    if configured:
        path = os.path.abspath(os.path.join(repo, configured))
        if os.path.commonpath([path, repo]) == repo:
            return path
    return os.path.join(repo, ".bench_build")


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "servebench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "servebench")


def source_digest(repo, bench_dir):
    """sha256 over the library sources, the root build file and the benchmark."""
    digest = hashlib.sha256()
    roots = [os.path.join(repo, "src"), bench_dir]
    files = [os.path.join(repo, "CMakeLists.txt")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files.extend(os.path.join(dirpath, name) for name in sorted(filenames))
    for path in files:
        digest.update(os.path.relpath(path, repo).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit(repo):
    if not os.path.isdir(os.path.join(repo, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", repo, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    repo = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(repo, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(repo, "src"))):
        log("no repository sources here (need CMakeLists.txt and src/); "
            "run from the repository root")
        return 2

    root = build_root(repo)
    try:
        binary = build(bench_dir, os.path.join(root, "servebench"))
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed: %s" % error)
        return 3

    out_dir = os.path.join(root, "servebench-out")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        log("run failed with exit code %d" % run.returncode)
        return 5
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log("run printed no result line")
        return 6

    host = {}
    info = {}
    for line in lines[:-1]:
        if line.startswith("host "):
            host = json.loads(line[len("host "):])
        elif line.startswith("info "):
            key, _, value = line[len("info "):].partition("=")
            info[key] = value
    host["commit"] = commit(repo)
    host["source_sha256"] = source_digest(repo, bench_dir)
    host["workload"] = args.workload
    host["seed"] = args.seed
    host["seconds"] = args.seconds
    host["trace"] = args.trace

    os.makedirs(out_dir, exist_ok=True)
    record = os.path.join(out_dir, "result-%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    with open(record, "w") as handle:
        json.dump({"host": host, "info": info, "result": result}, handle, indent=1)

    for line in lines[:-1]:
        if not line.startswith("host "):
            print(line)
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
