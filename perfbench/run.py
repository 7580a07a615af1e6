#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
simulator from ../src) into .bench_build/perfbench on first use, then runs
one workload and relays its output; the last stdout line is the JSON result.

  python3 perfbench/run.py --workload fig2_sweep_fast --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test

Run from anywhere; all paths are relative to the checkout holding this file.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
BINARY = BUILD_DIR / "e2e_bench"
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))

# Simulated end-to-end metrics: deterministic per seed.
SIMULATED = ("throughput_ops", "mean_response_ms", "p95_response_ms",
             "staleness_ms", "freshness_pct", "offload_pct")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    try:
        proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def self_test():
    """Short mode of every workload, both trace settings: checks the result
    shape against BENCHMARK.json and that simulated metrics repeat exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in [w["name"] for w in spec["workloads"]]:
        seen = []
        for trace in (0, 1, 0):
            code, out = run_binary(["--workload", workload, "--seed", "7",
                                    "--seconds", "0.5", "--trace", str(trace),
                                    "--short"])
            if code != 0:
                fail(f"self-test: {workload} trace={trace} exited {code}")
            result = result_of(out)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"self-test: {workload}: bad result keys {sorted(result)}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                fail(f"self-test: {workload} trace={trace}: metrics differ "
                     f"from BENCHMARK.json")
            if trace == 0:
                seen.append([result["attempted"], result["failed"]] +
                            [result["metrics"][k]["value"] for k in SIMULATED])
        if seen[0] != seen[1]:
            fail(f"self-test: {workload}: simulated metrics differ between "
                 f"two runs of one seed")
        print(f"self-test ok: {workload}", file=sys.stderr)
    code, _ = run_binary(["--workload", "no_such_workload", "--seed", "1",
                          "--seconds", "1", "--trace", "0"])
    if code == 0:
        fail("self-test: unknown workload accepted")
    print("self-test passed", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="shrunken phases (self-test size)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        self_test()
        return 0
    if not args.workload:
        parser.error("--workload is required")
    command = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.short:
        command.append("--short")
    if args.trace == 1:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")]
    code, out = run_binary(command)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
