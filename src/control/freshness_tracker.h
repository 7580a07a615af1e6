#ifndef CLOUDDB_CONTROL_FRESHNESS_TRACKER_H_
#define CLOUDDB_CONTROL_FRESHNESS_TRACKER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/time_types.h"
#include "db/database.h"
#include "metrics/metric_registry.h"
#include "repl/replication_cluster.h"
#include "sim/simulation.h"

namespace clouddb::control {

struct FreshnessTrackerOptions {
  /// Heartbeat-scan cadence. The probe's estimate can lag reality by up to
  /// one period — bounded reads re-check at completion precisely because of
  /// this.
  SimDuration poll_period = Millis(250);
  std::string heartbeat_table = "heartbeat";
};

/// Periodically measures each slave's *observed* replication staleness from
/// the paper's heartbeat table, the application-managed counterpart of
/// SHOW SLAVE STATUS. Staleness of slave s is computed purely from
/// master-side commit timestamps:
///
///   staleness(s) = t_master[latest hb id on master]
///                - t_master[latest hb id applied on s]
///
/// Both operands come from the *master's* clock, so inter-instance clock
/// offset/drift cancels exactly — unlike the raw per-id delay, no idle
/// baseline subtraction is needed. Granularity is one heartbeat period.
///
/// A poll reads only what changed since the last one. The tracker keeps the
/// current master's id -> commit-time map and each slave's newest heartbeat
/// id (its cursor), and reads each replica's heartbeat table from there
/// (repl::ReadHeartbeats' `after_id`), so a poll costs O(new heartbeats +
/// active replicas), not O(history). This relies on the heartbeat table
/// being append-only while the tracker lives (only HeartbeatPlugin writes
/// it). The master map is rebuilt when a promotion installs a new master.
/// A slave whose newest id the master does not hold, or whose table shrank
/// (a replica copy replaced it), is re-read whole, so every value equals
/// the one two whole-table reads would give.
///
/// The tracker publishes `repl.slave.observed_staleness_ms` into each
/// slave's registry and hands the proxy a probe callback (Probe()) so the
/// client layer can consume the signal without depending on this layer.
class FreshnessTracker {
 public:
  FreshnessTracker(sim::Simulation* sim, repl::ReplicationCluster* cluster,
                   FreshnessTrackerOptions options = {});

  /// Starts periodic polling (first sample after one period).
  void Start();
  void Stop();

  /// Takes one sample immediately (also called by the periodic tick).
  void Poll();

  /// Latest observed staleness of slave `i` in ms; negative when unknown
  /// (never sampled, no heartbeats applied yet, or the slave is retired).
  double StalenessMs(int slave_index) const;

  /// The callback shape ReadWriteSplitProxy::SetStalenessProbe expects.
  std::function<double(int)> Probe();

  int64_t polls() const { return polls_->value(); }
  metrics::MetricRegistry& metrics() { return metrics_; }

 private:
  /// Grows per-slave state when the cluster scaled out since the last poll
  /// and registers the staleness gauge into each new slave's registry.
  void SyncSlaveCount();

  sim::Simulation* sim_;
  repl::ReplicationCluster* cluster_;
  FreshnessTrackerOptions options_;
  std::vector<double> staleness_ms_;  // parallel to cluster slaves
  // Cursor state. `master_hb_` is `master_db_`'s heartbeat table as of the
  // last poll; old masters stay alive in the cluster, so a changed address
  // always means a promotion. `newest_hb_id_` (parallel to cluster slaves)
  // is each slave's newest heartbeat id at its last read, 0 before any.
  const db::Database* master_db_ = nullptr;
  std::map<int64_t, int64_t> master_hb_;
  std::vector<int64_t> newest_hb_id_;
  metrics::MetricRegistry metrics_;
  metrics::Counter* polls_ = nullptr;
  sim::PeriodicTimer ticker_;
};

}  // namespace clouddb::control

#endif  // CLOUDDB_CONTROL_FRESHNESS_TRACKER_H_
