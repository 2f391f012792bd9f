#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload roundtrip|bfs|storm [--seed N]
                             [--seconds S] [--trace 0|1] [--size full|tiny]

Run from the repository root. The first run configures and builds the
simulator and the benchmark binary (Release) into .bench_build/perfbench;
later runs only rebuild what changed. Build output goes to standard
error. The binary's own output follows on standard output; its last line
is the JSON result. The exit code is the binary's: 0 only when every
output check passed. See perfbench/README.md for the metrics.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "flick_perfbench")
WORKLOADS = ("roundtrip", "bfs", "storm")
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print(f"run.py: error: {msg}", file=sys.stderr)
    sys.exit(code)


def bounded_int(lo, hi):
    """argparse type: a plain decimal integer in [lo, hi]."""

    def parse(text):
        if not re.fullmatch(r"[0-9]{1,20}", text) or not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(
                f"want a whole number in [{lo}, {hi}], got {text!r}")
        return int(text)

    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="run.py", description="Run one workload of the repository "
        "benchmark and print its metrics.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=bounded_int(0, 2**64 - 1), default=1)
    p.add_argument("--seconds", type=bounded_int(1, 600), default=30)
    p.add_argument("--trace", type=bounded_int(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def revision():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the simulator sources (src/) are not next to perfbench/; "
             "run from a full checkout of the repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "flick_perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main(argv):
    args = parse_args(argv)
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--commit", revision()]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    return r.returncode if r.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
