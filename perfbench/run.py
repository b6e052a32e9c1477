#!/usr/bin/env python3
"""Build and run the FlashMem end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload zoo_plan --seed 1 --seconds 30 --trace 0

Builds perfbench/ (a standalone CMake project over ../src) into
.bench_build/perfbench, runs one workload, and prints the benchmark's
report followed, as the last line, by one JSON object with the keys
correct, attempted, failed and metrics. Build output goes to stderr.

Set-up is timed cold, as the first thing in a fresh process: the run's
own set-up and SETUP_PROCESSES - 1 more `perfbench --setup-only`
processes. Each set-up time in the result is the median of the lot.
Exits non-zero, without a result line, when the checkout has no
FlashMem sources, the build fails, or the run fails or times out.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
SETUP_PROCESSES = 3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "core" / "flashmem.hh").is_file():
        fail(f"no FlashMem sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD_DIR / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(cmd, deadline):
    """Runs cmd to completion before the deadline; returns its exit
    code, its report lines and its parsed result line."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("\n".join(lines))
        fail(f"exit code {proc.returncode}, no result line")
    return proc.returncode, lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = [str(binary), "--workload", args.workload,
            "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_PROCESSES - 1):
        code, _, res = run(base + ["--setup-only"], deadline)
        if code != 0:
            fail(f"set-up process failed with exit code {code}")
        setups.append(res["metrics"])
    code, lines, result = run(
        base + ["--seconds", str(args.seconds), "--trace", args.trace,
                "--out-dir", str(BUILD_DIR)], deadline)
    print("\n".join(lines))

    # Set-up times: median over this run's set-up and the extra ones.
    metrics = result.get("metrics", {})
    for name in sorted(setups[0] if setups else []):
        if name in metrics:
            values = [metrics[name]["value"]] + [s[name]["value"]
                                                 for s in setups]
            metrics[name]["value"] = statistics.median(values)
            print(f"{name} over {len(values)} cold set-ups: "
                  + " ".join(f"{v:.4f}" for v in values))

    # The result must carry exactly the metrics BENCHMARK.json declares.
    want = expected_metrics(args.trace == "1")
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metric names differ from BENCHMARK.json: "
             f"missing {missing}, extra {extra}")
    print(json.dumps(result))
    if code != 0 or not result.get("correct"):
        sys.exit(code or 1)


if __name__ == "__main__":
    main()
