#!/usr/bin/env bash
# Runs the microbenchmarks and writes the google-benchmark JSON reports to
# BENCH_micro_engine.json, BENCH_micro_sim.json, BENCH_micro_metrics.json,
# BENCH_micro_lint.json, and BENCH_micro_repl.json
# at the repository root (the committed perf records; see DESIGN.md
# "Execution pipeline", "Simulation kernel & parallel harness", and
# "Metrics spine").
#
# Measurement policy: every benchmark runs --benchmark_repetitions=5 and the
# report keeps only the aggregates (mean/median/stddev/cv per benchmark,
# --benchmark_report_aggregates_only=true). Single-run numbers on a shared
# machine routinely jitter 5-20%; the committed records quote the *median*
# row, which is robust to one-sided noise (a background process can only
# slow a run down, so outliers skew high). When comparing before/after,
# compare medians and treat deltas within the reported cv as noise.
# Extra flags passed on the command line come after the defaults, so
# e.g. `bench/run_bench.sh build --benchmark_repetitions=1` overrides them.
#
# The script always records all five binaries. To re-record one record
# alone (say a change touched only what micro_repl measures), run that
# binary with the same flags from the repository root:
#   build/bench/<name> --json BENCH_<name>.json \
#       --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
# Passing --benchmark_filter here instead would overwrite the other four
# records with reports that lack their rows.
#
# Usage: bench/run_bench.sh [build_dir] [extra google-benchmark flags...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
if [[ $# -gt 0 ]]; then shift; fi

default_flags=(
  --benchmark_repetitions=5
  --benchmark_report_aggregates_only=true
)

for name in micro_engine micro_sim micro_metrics micro_lint micro_repl; do
  bin="${build_dir}/bench/${name}"
  if [[ ! -x "${bin}" ]]; then
    echo "${name} not built at ${bin}; build with:" >&2
    echo "  cmake -B '${build_dir}' -S '${repo_root}' && cmake --build '${build_dir}' --target ${name}" >&2
    exit 1
  fi
  "${bin}" --json "${repo_root}/BENCH_${name}.json" "${default_flags[@]}" "$@"
done
