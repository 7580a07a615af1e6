#ifndef CLOUDDB_HARNESS_EXPERIMENT_H_
#define CLOUDDB_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "client/rw_split_proxy.h"
#include "cloud/cloud_provider.h"
#include "cloud/ntp.h"
#include "cloudstone/benchmark_driver.h"
#include "cloudstone/operations.h"
#include "common/result.h"
#include "repl/heartbeat.h"
#include "repl/replication_cluster.h"
#include "cloud/placement.h"
#include "common/time_types.h"

namespace clouddb::harness {

/// The paper's three geographic configurations for the slaves (§III-A):
/// same zone / different zone (same region) / different region.
enum class LocationConfig {
  kSameZone,
  kDifferentZone,
  kDifferentRegion,
};

const char* LocationConfigToString(LocationConfig location);
cloud::Placement SlavePlacementFor(LocationConfig location);

/// Everything that defines one experiment run.
struct ExperimentConfig {
  LocationConfig location = LocationConfig::kSameZone;
  cloudstone::WorkloadMix mix = cloudstone::WorkloadMix::FiftyFifty();
  cloudstone::OperationCosts costs;
  /// The paper's "initial data size" (300 for 50/50 runs, 600 for 80/20).
  int64_t data_scale = 300;
  int num_slaves = 1;
  int num_users = 50;
  cloudstone::BenchmarkOptions benchmark;
  repl::HeartbeatOptions heartbeat;
  /// Idle heartbeat window before ramp-up: baseline for the *relative*
  /// replication delay ("the average of delays without running workloads").
  SimDuration idle_window = Minutes(2);
  cloud::CloudOptions cloud;
  /// NTP on every instance, synchronized every second (§III-A).
  cloud::NtpOptions ntp;
  bool enable_ntp = true;
  bool synchronous_replication = false;
  /// Parse-once statement caches in the proxy and on every replica. The
  /// proxy compiles each op once (through its cache when on, by a plain
  /// parse when off), and that compiled form runs on the serving replica
  /// and, for a write, on every slave; a replica's own cache serves only
  /// the text it compiles itself (the pre-load, heartbeats, heartbeat
  /// reads, re-shipped events). Off reverts to parse-per-statement;
  /// experiment *results* must be bit-identical either way (the cache only
  /// removes redundant work).
  bool statement_cache = true;
  /// Has no effect. Kept only because perfbench's replay
  /// (perfbench/src/layered.cc) still reads it; ROADMAP item 1 deletes it
  /// together with ReplicationCluster::SetVectorizedExecEnabled.
  bool vectorized_exec = true;
  /// Row-based writeset replication: the master ships row images next to
  /// statement events and slaves apply covered statements without the
  /// parser. Same ablation contract: replica state is bit-identical either
  /// way (DDL and function-bearing statements always fall back).
  bool row_based_repl = false;
  /// Binlog group-shipping batch size; <= 1 keeps the legacy
  /// one-message-per-event push (byte-identical to the seed figures).
  int binlog_batch_size = 1;
  client::BalancePolicy policy = client::BalancePolicy::kRoundRobin;
  double apply_factor = 0.5;
  uint64_t seed = 42;
  /// Seed for the *cloud* randomness (instance speed lottery, clock offsets,
  /// network jitter). Defaults to a value derived from `seed`. Sweeps pin
  /// this so one figure's curves share a fixed set of launched instances —
  /// the paper reuses its deployment across the workload steps of a figure.
  std::optional<uint64_t> placement_seed;
};

/// Measurements of one run.
struct ExperimentResult {
  cloudstone::BenchmarkReport benchmark;
  /// Average relative replication delay per slave, ms (paper Figs. 5/6).
  std::vector<double> relative_delay_ms;
  /// Trimmed-mean raw delays per slave for both windows (diagnostics).
  std::vector<double> idle_delay_ms;
  std::vector<double> loaded_delay_ms;
  /// Mean of relative_delay_ms across slaves.
  double mean_relative_delay_ms = 0.0;
  /// Post-drain invariants. RunExperiment fails unless both hold, so a
  /// returned result always has both true.
  bool fully_replicated = false;
  bool converged = false;
  int64_t heartbeats_issued = 0;
  int64_t binlog_events = 0;
};

/// Builds the full three-layer deployment of the paper's Fig. 1 — benchmark
/// instance (L1), master (L2), slaves (L3) — runs one 35-minute Cloudstone
/// benchmark with the heartbeat probe, drains, and reports. Fails when,
/// after the drain, a slave has not applied the whole binlog or the
/// replicas' contents differ.
Result<ExperimentResult> RunExperiment(const ExperimentConfig& config);

}  // namespace clouddb::harness

#endif  // CLOUDDB_HARNESS_EXPERIMENT_H_
