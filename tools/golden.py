#!/usr/bin/env python3
"""Golden-output gate for the figure, ablation and example binaries.

Each binary's stdout at CLOUDDB_FAST=1 is committed as
tests/golden/<name>.txt. This script runs the binary from a build tree,
requires exit code 0, and compares its stdout with that file byte for byte.
On a mismatch it prints the first line that differs and exits 1.

  python3 tools/golden.py --build build fig2_throughput_5050   # check one
  python3 tools/golden.py --build build                        # check all
  python3 tools/golden.py --build build --update quickstart    # re-cut one

The binary is <build>/bench/<name> or <build>/examples/<name>, run with the
caller's environment plus CLOUDDB_FAST=1; CLOUDDB_JOBS=N spreads a grid's
cells over N workers without changing its stdout. ctest runs one entry per
golden file (label `golden`) except the 80/20 grid, which takes about 40 s
with 4 workers and is checked with

  CLOUDDB_JOBS=4 python3 tools/golden.py --build build fig3_throughput_8020

A change that moves a binary's output on purpose re-cuts its file with
--update and states the difference in CHANGES.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
STDERR_TAIL_LINES = 20


def find_binary(build, name):
    for sub in ("bench", "examples"):
        path = build / sub / name
        if path.is_file():
            return path
    return None


def show(line):
    if line is None:
        return "<end of output>"
    return repr(line.decode("utf-8", errors="replace"))


def first_difference(expected, actual):
    """(1-based line number, expected line, actual line) of the first line
    that differs; a side that ended early gives None for its line."""
    exp = expected.splitlines(keepends=True)
    act = actual.splitlines(keepends=True)
    for i in range(max(len(exp), len(act))):
        e = exp[i] if i < len(exp) else None
        a = act[i] if i < len(act) else None
        if e != a:
            return i + 1, e, a
    return None


def check(build, name, update, env):
    binary = find_binary(build, name)
    if binary is None:
        print(f"{name}: no binary under {build}/bench or {build}/examples")
        return False
    proc = subprocess.run([str(binary)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env)
    if proc.returncode != 0:
        print(f"{name}: exited with code {proc.returncode}; its stderr ends:")
        tail = proc.stderr.decode("utf-8", errors="replace").splitlines()
        for line in tail[-STDERR_TAIL_LINES:]:
            print(f"  {line}")
        return False
    golden = GOLDEN_DIR / f"{name}.txt"
    if update:
        golden.write_bytes(proc.stdout)
        print(f"{name}: wrote {golden.relative_to(ROOT)}")
        return True
    if not golden.is_file():
        print(f"{name}: no golden file {golden.relative_to(ROOT)} "
              f"(cut it with --update)")
        return False
    expected = golden.read_bytes()
    if proc.stdout == expected:
        print(f"{name}: stdout matches {golden.relative_to(ROOT)}")
        return True
    line, e, a = first_difference(expected, proc.stdout)
    print(f"{name}: stdout differs from {golden.relative_to(ROOT)} "
          f"at line {line}")
    print(f"  expected: {show(e)}")
    print(f"  actual:   {show(a)}")
    return False


def main():
    parser = argparse.ArgumentParser(
        description="Compare figure, ablation and example stdout with the "
                    "committed golden files.")
    parser.add_argument("names", nargs="*",
                        help="binaries to check, e.g. fig2_throughput_5050 "
                             "(default: every tests/golden/*.txt)")
    parser.add_argument("--build", default=str(ROOT / "build"),
                        help="build tree holding bench/ and examples/")
    parser.add_argument("--update", action="store_true",
                        help="re-cut the golden files instead of comparing")
    args = parser.parse_args()

    names = args.names or sorted(p.stem for p in GOLDEN_DIR.glob("*.txt"))
    env = dict(os.environ, CLOUDDB_FAST="1")
    build = Path(args.build).resolve()
    failed = [n for n in names if not check(build, n, args.update, env)]
    if failed:
        print(f"{len(failed)} of {len(names)} failed: {' '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
