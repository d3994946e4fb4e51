#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload q1_inmem --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
segment files, sockets, traces and exact-count records go to
.bench_build/perfbench-work. The last line of standard output is the
result JSON that perfbench prints.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["q1_inmem", "served", "segments_oversize"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_digest():
    """Digest of every source the benchmark build reads."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    # Only the checkout's own repository, never one that encloses it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "plan",
                                       "parallel_executor.h")):
        log(f"libgus sources not found under {ROOT}/src; cannot build")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(max(1, os.cpu_count() or 1))
    made = subprocess.run(["cmake", "--build", build_dir, "--target", target,
                           "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    target_root = os.path.join(ROOT,
                               os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    build_dir = os.path.join(target_root, "perfbench")
    # Compiler and library temporaries stay inside the checkout too.
    tmp_dir = os.path.join(target_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    target = "perfbench_test" if args.selftest else "perfbench"
    if not build(build_dir, target):
        log("build failed")
        return 2
    binary = os.path.join(build_dir, target)
    if args.selftest:
        return subprocess.run([binary]).returncode

    # Relative to the checkout: Unix socket paths must stay short.
    work_dir = os.path.relpath(os.path.join(target_root, "perfbench-work"),
                               ROOT)
    os.makedirs(os.path.join(ROOT, work_dir), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-sha", git_sha(),
           "--build-id", source_digest()]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        return 3


if __name__ == "__main__":
    sys.exit(main())
