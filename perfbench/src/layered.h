#ifndef PERFBENCH_LAYERED_H_
#define PERFBENCH_LAYERED_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

/// Deterministic work counts of one run, keyed by per-layer metric name
/// (sim.events, net.messages, repl.binlog_events, db.queries, ...). Summed
/// over cells, except `repl.relay_backlog_peak` (max). Same seed, same
/// counts: two repetitions that disagree fail the run.
using WorkCounters = std::map<std::string, int64_t>;

/// What the layered run measures beyond the harness results.
struct LayeredOutcome {
  SimOutcome sim;  // must equal RunHarness(workload) exactly
  WorkCounters counters;
  int cells = 0;
  /// Simulated CPU busy fraction over the steady (fig7: measured) window,
  /// summed over cells: master, and mean over slaves.
  double cpu_util_master_sum = 0.0;
  double cpu_util_slave_mean_sum = 0.0;
  /// Simulated seconds covered, summed over cells.
  double sim_seconds = 0.0;
  /// Every cell ended with all active slaves fully replicated / converged.
  bool all_fully_replicated = true;
  bool all_converged = true;
  /// Control cells only, one entry per cell: p95 response (ms) over the
  /// measured window, and the average relative replication delay (ms) of the
  /// first slave — the one replica attached for the whole run — by the
  /// paper's heartbeat method, with the warmup as the idle baseline.
  std::vector<double> control_p95_response_ms;
  std::vector<double> control_relative_delay_ms;
};

/// Rebuilds the workload's deployment from the layers' public functions —
/// the same sequence of calls the harness entry point makes, cell by cell —
/// and, when `tracer` is non-null, records a span around each call. In the
/// control workload the freshness tracker's Poll() and the controller's
/// Tick() are driven by the benchmark's own timers (same periods, same
/// start order) so each call can be timed. Benchmark-owned events (the
/// once-per-simulated-second relay-backlog sampler and window-edge CPU
/// snapshots) are excluded from `sim.events`.
clouddb::Result<LayeredOutcome> RunLayered(const Workload& workload,
                                           Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERED_H_
