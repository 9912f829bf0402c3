#!/usr/bin/env python3
"""Builds and runs the rounds benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload rounds|consult|shift|handoff \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark is its own CMake package (perfbench/CMakeLists.txt). It is
configured as a Release build under .bench_build/perfbench and built from
the SLIM sources of the checkout it sits in; the first run builds, later
runs reuse the build. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SOURCES = ("CMakeLists.txt", "src", "perfbench")  # what source_id digests
WORKLOADS = ("rounds", "consult", "shift", "handoff")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    """Standard output of a git command in ROOT, or None when it fails."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_id():
    """A digest of the measured sources, after the git SHA when there is one.

    The SHA is marked -dirty when the working tree changes the sources, so a
    run of uncommitted code does not carry its parent's bare SHA.
    """
    digest = hashlib.sha256()
    files = [ROOT / SOURCES[0]]
    for top in SOURCES[1:]:
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    ident = "sources-sha256:" + digest.hexdigest()[:16]
    sha = git("rev-parse", "HEAD")
    if not sha:
        return ident
    dirty = git("status", "--porcelain", "--", *SOURCES)
    return f"git:{sha}{'-dirty' if dirty else ''} {ident}"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no SLIM sources under {ROOT / 'src'}; run from a SLIM checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def check_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS
            and isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the arithmetic test only")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.selftest:
        sys.exit(subprocess.run([str(BUILD / "stats_test")]).returncode)

    cmd = [str(BUILD / "rounds_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--source-id", source_id()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines or not check_result(lines[-1]):
        fail(f"benchmark failed (exit code {done.returncode})")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
