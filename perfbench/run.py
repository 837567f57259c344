#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload train_step --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench (Release) with the library
sources under src/ into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only rebuild what changed. The last line
of standard output is the result object printed by the perfbench binary.
Exits non-zero without a result when the sources are missing, the build
fails, or the run fails or times out.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("train_step", "train_merge")
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def git_commit(root):
    """HEAD when the checkout is a git repository, else "none"."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "none"


def source_digest(root):
    """Digest of the benchmark and library sources: names the exact code a
    result was measured on, committed or not."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                   build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(["ninja", "--version"], capture_output=True,
                              check=False).returncode == 0:
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        done = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                              stdout=sys.stderr)
        return done.returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("library sources (src/CMakeLists.txt) not found; run from the "
            "repository root")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    if not build(root, build_dir):
        log("build failed")
        return 3

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", git_commit(root), "--sources", source_digest(root),
           "--work-dir", os.path.join(build_dir, "run")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s and was stopped")
        return 4
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log(f"no result line (exit code {done.returncode})")
        for line in lines:
            print(line, file=sys.stderr)
        return done.returncode or 5
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
