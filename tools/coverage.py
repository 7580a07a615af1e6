#!/usr/bin/env python3
"""Line coverage of src/: what the figures and examples run versus ctest.

Configures and builds a --coverage tree in build-cov/, then measures two
runs, each from zeroed counters:

  traffic  every non-micro binary in bench/ (CLOUDDB_FAST=1, --jobs set to
           the core count) and every example;
  ctest    the whole ctest suite.

For each run it prints covered and total gcov lines of src/, per module and
in total, then the files with the most lines that only ctest reaches. A line
in a header counts once, and counts as covered if any translation unit ran
it. Every compiled object counts toward the totals, run or not, so both runs
share one denominator.

  python3 tools/coverage.py

Needs python3 and gcov only. Exits nonzero if the build, a binary or a test
fails. A full run takes about 6-8 minutes on 4 vCPUs, about four of them in
fig3 (which also prints Fig. 6 from the same runs).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / "build-cov"
LOGS = BUILD / "coverage-logs"
TOP = 15  # files listed by lines only ctest reaches


def fail(message):
    print(f"coverage: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_name, env=None):
    """Runs `cmd` with its output in a log file; fails the script on error."""
    log = LOGS / f"{log_name}.log"
    with open(log, "w") as out:
        code = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env, cwd=BUILD).returncode
    if code != 0:
        fail(f"{' '.join(map(str, cmd))} exited {code} (see {log})")


def build(jobs):
    LOGS.mkdir(parents=True, exist_ok=True)
    configure = ["cmake", "-S", str(ROOT), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Debug",
                 "-DCMAKE_CXX_FLAGS=-O1 --coverage -fprofile-update=atomic",
                 "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]
    if shutil.which("ninja") and not (BUILD / "Makefile").exists():
        configure += ["-G", "Ninja"]
    run_logged(configure, "configure")
    run_logged(["cmake", "--build", str(BUILD), "-j", str(jobs)], "build")


def zero_counters():
    for gcda in BUILD.rglob("*.gcda"):
        gcda.unlink()


def executables(directory):
    return sorted(p for p in directory.iterdir()
                  if p.is_file() and os.access(p, os.X_OK))


def run_traffic(jobs):
    # Binaries that run no sweep ignore --jobs.
    env = dict(os.environ, CLOUDDB_FAST="1")
    for binary in executables(BUILD / "bench"):
        if binary.name.startswith("micro_"):
            continue
        print(f"  bench/{binary.name}", flush=True)
        run_logged([str(binary), "--jobs", str(jobs)], binary.name, env)
    for binary in executables(BUILD / "examples"):
        print(f"  examples/{binary.name}", flush=True)
        run_logged([str(binary)], binary.name)


def run_ctest(jobs):
    run_logged(["ctest", "-j", str(jobs), "--output-on-failure"], "ctest")


def measure():
    """{src-relative path: {line: covered}} over every compiled object."""
    notes = sorted(str(p) for p in BUILD.rglob("*.gcno"))
    lines = defaultdict(dict)
    for i in range(0, len(notes), 64):
        proc = subprocess.run(["gcov", "--json-format", "--stdout"] +
                              notes[i:i + 64], cwd=BUILD, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        if proc.returncode != 0:
            fail("gcov failed")
        for doc in proc.stdout.splitlines():
            if not doc.strip():
                continue
            report = json.loads(doc)
            cwd = Path(report["current_working_directory"])
            for entry in report["files"]:
                path = Path(os.path.normpath(cwd / entry["file"]))
                if SRC not in path.parents:
                    continue
                per_line = lines[str(path.relative_to(SRC))]
                for line in entry["lines"]:
                    number = line["line_number"]
                    per_line[number] = (per_line.get(number, False) or
                                        line["count"] > 0)
    return lines


def tally(lines):
    """{module: [covered, total]} plus a 'total' row."""
    rows = defaultdict(lambda: [0, 0])
    for path, per_line in lines.items():
        module = path.split("/", 1)[0] if "/" in path else "."
        for key in (module, "total"):
            rows[key][0] += sum(per_line.values())
            rows[key][1] += len(per_line)
    return rows


def cell(covered, total):
    pct = 100.0 * covered / total if total else 0.0
    return f"{covered:>5}/{total:<5} {pct:5.1f}%"


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    if shutil.which("gcov") is None:
        fail("gcov not found")
    jobs = os.cpu_count() or 1

    print(f"building {BUILD.relative_to(ROOT)}", flush=True)
    build(jobs)
    print("run 1: bench (CLOUDDB_FAST=1) and examples", flush=True)
    zero_counters()
    run_traffic(jobs)
    traffic = measure()
    print("run 2: ctest", flush=True)
    zero_counters()
    run_ctest(jobs)
    ctest = measure()

    traffic_rows, ctest_rows = tally(traffic), tally(ctest)
    modules = sorted(k for k in ctest_rows if k != "total") + ["total"]
    print("\nsrc/ line coverage (gcov lines)")
    print(f"{'module':<10} {'bench+examples':<21} {'ctest':<21}")
    for module in modules:
        print(f"{module:<10} {cell(*traffic_rows[module]):<21} "
              f"{cell(*ctest_rows[module]):<21}")

    only_ctest = []
    for path, per_line in ctest.items():
        ran = traffic.get(path, {})
        count = sum(1 for number, covered in per_line.items()
                    if covered and not ran.get(number, False))
        if count:
            only_ctest.append((count, path))
    only_ctest.sort(key=lambda item: (-item[0], item[1]))
    total_only = sum(count for count, _ in only_ctest)
    print(f"\nlines only ctest reaches: {total_only}; top {TOP} files")
    for count, path in only_ctest[:TOP]:
        print(f"{count:>6}  src/{path}")


if __name__ == "__main__":
    main()
