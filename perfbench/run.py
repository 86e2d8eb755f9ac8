#!/usr/bin/env python3
"""Build the simulator and the perfbench binary, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload gemm-full --seed 1 --seconds 25 --trace 0

The build goes to .bench_build/perfbench (CMake, Release) and is reused
on later runs; only changed sources recompile. Build output goes to
standard error. The binary's standard output is passed through
unchanged, so its last line is the result JSON. Extra options
(--fault golden|fast-mismatch) are passed to the binary.

Exit codes: the binary's own (0 correct, 1 a check failed, 2 bad
arguments), 3 when the build fails, 4 when the binary overruns its
time limit.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def src_digest():
    """SHA-256 over every file under src/, so a result names its code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    if not (ROOT / "src" / "sim" / "simulation.hh").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    if not build():
        return 3
    work = BUILD / "work"
    work.mkdir(exist_ok=True)
    env = dict(os.environ,
               PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SRC_DIGEST=src_digest())
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace, "--work-dir", str(work)] + extra
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4


if __name__ == "__main__":
    sys.exit(main())
