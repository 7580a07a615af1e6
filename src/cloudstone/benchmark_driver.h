#ifndef CLOUDDB_CLOUDSTONE_BENCHMARK_DRIVER_H_
#define CLOUDDB_CLOUDSTONE_BENCHMARK_DRIVER_H_

#include <memory>
#include <vector>

#include "client/rw_split_proxy.h"
#include "cloudstone/operations.h"
#include "common/stats.h"
#include "common/time_types.h"
#include "repl/replication_cluster.h"
#include "sim/simulation.h"
#include "common/rng.h"

namespace clouddb::cloudstone {

/// One completed operation, as recorded by the metrics collector.
struct OpRecord {
  SimTime completed_at;
  OpType type;
  bool is_read;
  bool ok;
  SimDuration response_time;
};

/// Collects per-operation completions for later windowed analysis.
class MetricsCollector {
 public:
  void Record(OpRecord record) { records_.push_back(record); }
  const std::vector<OpRecord>& records() const { return records_; }

  /// Completions inside [from, to), optionally filtered to reads or writes.
  int64_t CountInWindow(SimTime from, SimTime to) const;
  int64_t CountInWindow(SimTime from, SimTime to, bool reads) const;
  /// Response-time sample (ms) of successful ops inside [from, to).
  Sample ResponseTimesMs(SimTime from, SimTime to) const;
  int64_t failures() const;

 private:
  std::vector<OpRecord> records_;
};

/// A closed-loop emulated user: think (exponential), issue one operation
/// through the proxy, wait for the response, repeat. One outstanding request
/// at a time — the classic interactive-user model that Cloudstone's load
/// generator (Faban) implements.
class UserEmulator {
 public:
  UserEmulator(sim::Simulation* sim, client::ReadWriteSplitProxy* proxy,
               OperationGenerator* generator, MetricsCollector* metrics,
               Rng rng, SimDuration think_time_mean);

  /// Schedules the user's first think at `start`; the user stops issuing
  /// new operations at `stop`.
  void Activate(SimTime start, SimTime stop);

  /// Per-read routing options every operation carries from now on; the
  /// default is unbounded (legacy routing). Setting a staleness bound makes
  /// this user's reads freshness-SLA reads (writes ignore it).
  void set_read_options(client::ReadOptions read_options) {
    read_options_ = read_options;
  }

  int64_t ops_issued() const { return ops_issued_; }

 private:
  void ThinkThenIssue();
  void IssueOp();

  sim::Simulation* sim_;
  client::ReadWriteSplitProxy* proxy_;
  OperationGenerator* generator_;
  MetricsCollector* metrics_;
  Rng rng_;
  SimDuration think_time_mean_;
  client::ReadOptions read_options_;
  SimTime stop_time_ = 0;
  int64_t ops_issued_ = 0;
  /// One kernel slot per user for the whole run: the activation fire and
  /// every think-time wait re-arm it instead of allocating a fresh closure
  /// per operation (users × ops events — the biggest scheduling consumer).
  bool activated_ = false;
  sim::Timer timer_;
};

/// Run-phase configuration: the paper's "every run lasts 35 minutes,
/// including 10-minute ramp-up, 20-minute steady stage and 5-minute ramp
/// down".
struct BenchmarkOptions {
  int num_users = 50;
  SimDuration ramp_up = Minutes(10);
  SimDuration steady = Minutes(20);
  SimDuration ramp_down = Minutes(5);
  SimDuration think_time_mean = Seconds(9);
  uint64_t seed = 1;
};

/// Steady-window measurements of one run.
struct BenchmarkReport {
  double throughput_ops = 0.0;        // end-to-end ops/s, steady window
  double read_throughput_ops = 0.0;
  double write_throughput_ops = 0.0;
  double mean_response_ms = 0.0;
  double p95_response_ms = 0.0;
  int64_t completed_ops = 0;
  int64_t failed_ops = 0;
  double master_cpu_utilization = 0.0;
  std::vector<double> slave_cpu_utilization;
  /// Statement-cache counters at report time, summed over the master and all
  /// slaves (what each replica compiled itself: the pre-load, heartbeats,
  /// heartbeat reads, re-shipped events) and taken from the proxy (routing
  /// cache: one compile per op, which the serving replica and every slave
  /// execute). All zeros when the caches are disabled.
  int64_t statement_cache_hits = 0;
  int64_t statement_cache_misses = 0;
  int64_t route_cache_hits = 0;
  int64_t route_cache_misses = 0;
  /// Row-based replication counters at report time: group messages the
  /// master shipped (0 without batching), and statements the slaves applied
  /// via the parser-free writeset path vs. the statement-apply fallback
  /// (both 0 when row-based replication is off), summed over all slaves.
  int64_t binlog_batches = 0;
  int64_t writeset_applies = 0;
  int64_t fallback_applies = 0;
};

/// Orchestrates one benchmark run: staggers user start over the ramp-up,
/// samples CPU counters at the steady-window boundaries, and produces the
/// report. The caller owns the simulation loop:
///
///   BenchmarkDriver driver(...);
///   driver.Start();
///   sim.RunUntil(driver.end_time());
///   BenchmarkReport report = driver.Report();
class BenchmarkDriver {
 public:
  BenchmarkDriver(sim::Simulation* sim, client::ReadWriteSplitProxy* proxy,
                  repl::ReplicationCluster* cluster,
                  OperationGenerator* generator,
                  const BenchmarkOptions& options);

  /// Cancels the pending CPU-snapshot events: their lambdas capture `this`,
  /// so a driver destroyed before the run completes must unschedule them.
  ~BenchmarkDriver();

  /// Schedules the whole run starting at the current simulated time.
  void Start();

  SimTime steady_start() const { return steady_start_; }
  SimTime steady_end() const { return steady_end_; }
  /// Time at which the ramp-down completes.
  SimTime end_time() const { return end_time_; }

  MetricsCollector& metrics() { return metrics_; }

  /// Valid after the simulation has run past end_time().
  BenchmarkReport Report() const;

 private:
  void SnapshotCpus(std::vector<int64_t>* busy) const;

  sim::Simulation* sim_;
  client::ReadWriteSplitProxy* proxy_;
  repl::ReplicationCluster* cluster_;
  OperationGenerator* generator_;
  BenchmarkOptions options_;
  MetricsCollector metrics_;
  std::vector<std::unique_ptr<UserEmulator>> users_;
  SimTime steady_start_ = 0;
  SimTime steady_end_ = 0;
  SimTime end_time_ = 0;
  std::vector<int64_t> busy_at_start_;
  std::vector<int64_t> busy_at_end_;
  sim::Simulation::EventHandle snapshot_start_;
  sim::Simulation::EventHandle snapshot_end_;
};

}  // namespace clouddb::cloudstone

#endif  // CLOUDDB_CLOUDSTONE_BENCHMARK_DRIVER_H_
