#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For each workload it makes tiny-size runs
through run.py with tracing off and on, and checks that:

  * the last output line is the result object with exactly the keys
    correct, attempted, failed and metrics, every call was correct and
    none failed;
  * the untraced run emits every end_to_end metric of BENCHMARK.json
    and the traced run every per_layer metric, each with its unit;
  * two traced runs with the same seed report identical per-layer
    counts.

It also checks that malformed flags are refused with a nonzero exit and
no result, by run.py and by the benchmark binary alike, and that a
directory holding only BENCHMARK.json and perfbench/ fails without a
result. Temporary files go under .bench_build/. Exits 1 on any failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_build", "selftest")
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "flick_perfbench")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def result_of(stdout):
    """The result object on the last line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        d = json.loads(lines[-1])
    except ValueError:
        return None
    return d if isinstance(d, dict) else None


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def tiny(workload, trace, seed=7):
    p = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
             "--trace", str(trace), "--size", "tiny"])
    return p, result_of(p.stdout)


def check_metrics(tag, d, wanted):
    got = d["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    check(not missing, f"{tag}: every metric present (missing {missing})")
    bad = [m["name"] for m in wanted if m["name"] in got and
           (got[m["name"]].get("unit") != m["unit"] or
            not isinstance(got[m["name"]].get("value"), (int, float)))]
    check(not bad, f"{tag}: units and numeric values match ({bad})")
    extra = sorted(set(got) - {m["name"] for m in wanted})
    check(not extra, f"{tag}: no unlisted metrics ({extra})")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]

    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            tag = f"{w} --trace {trace}"
            p, d = tiny(w, trace)
            check(p.returncode == 0, f"{tag}: exit code 0 ({p.returncode})")
            if d is None:
                check(False, f"{tag}: result line parses\n{p.stderr[-2000:]}")
                continue
            check(set(d) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            check(d["correct"] is True and d["failed"] == 0 and
                  d["attempted"] >= 1, f"{tag}: correct, nothing failed")
            wanted = bench["per_layer"] if trace else bench["end_to_end"]
            check_metrics(tag, d, wanted)
            if trace:
                p2, d2 = tiny(w, 1)
                same = d2 is not None and all(
                    d["metrics"][n] == d2["metrics"][n] for n in counts)
                check(same, f"{tag}: per-layer counts repeat exactly")

    bad_flags = [
        ["--workload", "nosuch"],
        ["--workload", "roundtrip", "--seed", "abc"],
        ["--workload", "roundtrip", "--seed", "-1"],
        ["--workload", "roundtrip", "--seconds", "0"],
        ["--workload", "roundtrip", "--trace", "2"],
        ["--workload", "roundtrip", "--size", "huge"],
        ["--seed", "1"],
    ]
    for args in bad_flags:
        p = run(args)
        check(p.returncode != 0 and result_of(p.stdout) is None,
              f"run.py refuses {' '.join(args)}")
        p = subprocess.run([BINARY] + args, capture_output=True, text=True,
                           timeout=60)
        check(p.returncode != 0 and result_of(p.stdout) is None,
              f"binary refuses {' '.join(args)}")
    for args in (["--workload", "bfs", "--seed=1e3"],
                 ["--workload", "bfs", "--seconds=30s"],
                 ["--workload", "bfs", "--bogus", "1"]):
        p = subprocess.run([BINARY] + args, capture_output=True, text=True,
                           timeout=60)
        check(p.returncode != 0 and result_of(p.stdout) is None,
              f"binary refuses {' '.join(args)}")

    # Only BENCHMARK.json and the benchmark directory: no sources to build.
    bare = os.path.join(WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run(["--workload", "roundtrip", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare)
    check(p.returncode != 0 and result_of(p.stdout) is None,
          "bare directory fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
