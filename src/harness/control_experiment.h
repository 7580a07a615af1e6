#ifndef CLOUDDB_HARNESS_CONTROL_EXPERIMENT_H_
#define CLOUDDB_HARNESS_CONTROL_EXPERIMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cloud/cloud_provider.h"
#include "cloudstone/operations.h"
#include "common/result.h"
#include "common/time_types.h"
#include "control/elasticity_controller.h"
#include "control/freshness_tracker.h"
#include "repl/heartbeat.h"

namespace clouddb::harness {

/// One closed-loop run of the application-managed control plane: a
/// staleness-bounded workload with a mid-run load step, the freshness
/// tracker feeding the proxy's SLA router, and the elasticity controller
/// scaling the replica tier against the observed lag.
struct ControlExperimentConfig {
  /// Staleness bound carried by every read (negative = unbounded, which
  /// degenerates to the legacy experiment).
  SimDuration staleness_bound = Millis(500);
  /// Users active for the whole measured window.
  int base_users = 10;
  /// Extra users active only inside the surge window — the load step that
  /// drives replication lag up and the controller into action.
  int surge_users = 40;
  /// Idle lead-in before users start (heartbeat baseline, cache warmup).
  SimDuration warmup = Seconds(30);
  /// Measured window (starts after warmup).
  SimDuration measure = Minutes(8);
  /// Surge window, as offsets into the measured window.
  SimDuration surge_start = Minutes(1);
  SimDuration surge_duration = Minutes(3);

  cloudstone::WorkloadMix mix = cloudstone::WorkloadMix::FiftyFifty();
  cloudstone::OperationCosts costs;
  int64_t data_scale = 100;
  int initial_slaves = 1;
  SimDuration think_time_mean = Seconds(1);
  double apply_factor = 0.5;
  /// As ExperimentConfig::statement_cache.
  bool statement_cache = true;

  /// The control plane under test. Policy is always kFreshnessAware here.
  bool enable_controller = true;
  control::FreshnessTrackerOptions tracker;
  control::ElasticityControllerOptions controller;
  /// Finer heartbeat cadence than the delay experiments: the heartbeat
  /// period is the staleness-measurement granularity, and SLA bounds sit in
  /// the hundreds of milliseconds.
  repl::HeartbeatOptions heartbeat{.period = Millis(250)};

  cloud::CloudOptions cloud;
  uint64_t seed = 42;
  std::optional<uint64_t> placement_seed;
};

struct ControlExperimentResult {
  // Routing outcome (proxy counters over the whole run).
  int64_t bounded_reads = 0;
  int64_t bounded_to_slave = 0;
  int64_t master_fallbacks = 0;
  int64_t read_retries = 0;
  int64_t sla_checked = 0;
  int64_t sla_violations = 0;
  /// % of completed bounded reads whose staleness, re-measured at
  /// completion, was within bound (master reads are within bound by
  /// definition).
  double achieved_freshness_pct = 100.0;
  /// % of bounded reads served by a replica instead of the master — the
  /// offload the freshness SLA still allows.
  double master_offload_pct = 0.0;

  // Controller outcome.
  int64_t scale_outs = 0;
  int64_t scale_ins = 0;
  int final_active_slaves = 0;
  int peak_active_slaves = 0;
  std::vector<control::ScalingEvent> scaling_events;
  /// Worst staleness the tracker observed on any active slave, ms.
  double peak_staleness_ms = 0.0;

  // Workload outcome.
  int64_t completed_ops = 0;
  int64_t failed_ops = 0;
  double throughput_ops = 0.0;  // measured window
  double mean_response_ms = 0.0;

  /// Cluster-wide metric spine, aggregated across every node registry plus
  /// the proxy, tracker, and controller (MergeFrom semantics). Rendered as
  /// a table; byte-identical across same-seed runs.
  std::string metrics_table;

  /// Human-readable replica-count timeline derived from the scaling events.
  std::string TimelineString() const;
};

Result<ControlExperimentResult> RunControlExperiment(
    const ControlExperimentConfig& config);

}  // namespace clouddb::harness

#endif  // CLOUDDB_HARNESS_CONTROL_EXPERIMENT_H_
