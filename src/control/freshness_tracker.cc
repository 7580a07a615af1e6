#include "control/freshness_tracker.h"

#include <map>

#include "db/database.h"
#include "repl/delay_monitor.h"
#include "repl/replication_cluster.h"
#include "sim/simulation.h"

namespace clouddb::control {

FreshnessTracker::FreshnessTracker(sim::Simulation* sim,
                                   repl::ReplicationCluster* cluster,
                                   FreshnessTrackerOptions options)
    : sim_(sim), cluster_(cluster), options_(std::move(options)),
      metrics_("freshness_tracker") {
  polls_ = metrics_.AddCounter("control.freshness.polls");
  SyncSlaveCount();
}

void FreshnessTracker::Start() {
  ticker_.Start(sim_, options_.poll_period, [this] { Poll(); });
}

void FreshnessTracker::Stop() { ticker_.Stop(); }

void FreshnessTracker::SyncSlaveCount() {
  while (static_cast<int>(staleness_ms_.size()) < cluster_->num_slaves()) {
    int index = static_cast<int>(staleness_ms_.size());
    staleness_ms_.push_back(-1.0);
    newest_hb_id_.push_back(0);
    cluster_->slave(index)->metrics().AddProbe(
        "repl.slave.observed_staleness_ms",
        [this, index] { return StalenessMs(index); });
  }
}

void FreshnessTracker::Poll() {
  polls_->Increment();
  SyncSlaveCount();
  db::Database& master_db = cluster_->master()->database();
  if (&master_db != master_db_) {
    // A promotion: the new master's heartbeat rows are not the old one's.
    master_db_ = &master_db;
    master_hb_.clear();
  }
  std::map<int64_t, int64_t> fresh = repl::ReadHeartbeats(
      master_db, options_.heartbeat_table,
      master_hb_.empty() ? 0 : master_hb_.rbegin()->first);
  master_hb_.merge(fresh);
  if (master_hb_.empty()) {
    // No heartbeats committed yet: nothing to measure.
    for (double& s : staleness_ms_) s = -1.0;
    return;
  }
  int64_t master_latest_id = master_hb_.rbegin()->first;
  int64_t master_latest_ts = master_hb_.rbegin()->second;
  for (int i = 0; i < cluster_->num_slaves(); ++i) {
    if (cluster_->IsSlaveRetired(i)) {
      staleness_ms_[static_cast<size_t>(i)] = -1.0;
      continue;
    }
    db::Database& slave_db = cluster_->slave(i)->database();
    int64_t& newest = newest_hb_id_[static_cast<size_t>(i)];
    // Re-read from the cursor row itself: a non-empty result ends at the
    // table's newest id, and an empty one means a copy replaced the table
    // with an older one.
    int64_t after_id = newest > 0 ? newest - 1 : 0;
    std::map<int64_t, int64_t> slave_hb =
        repl::ReadHeartbeats(slave_db, options_.heartbeat_table, after_id);
    if (after_id > 0 &&
        (slave_hb.empty() || master_hb_.count(slave_hb.rbegin()->first) == 0)) {
      // The table shrank, or the master lacks its newest id (the slave is
      // ahead of a newly promoted master): walk the whole table.
      slave_hb = repl::ReadHeartbeats(slave_db, options_.heartbeat_table);
    }
    newest = slave_hb.empty() ? 0 : slave_hb.rbegin()->first;
    double staleness = -1.0;
    // Latest heartbeat the slave has applied that the master also knows
    // about; both timestamps are master-local, so the clock offset cancels.
    for (auto it = slave_hb.rbegin(); it != slave_hb.rend(); ++it) {
      auto on_master = master_hb_.find(it->first);
      if (on_master != master_hb_.end()) {
        staleness = static_cast<double>(
                        (it->first == master_latest_id
                             ? 0
                             : master_latest_ts - on_master->second)) /
                    1000.0;
        break;
      }
    }
    staleness_ms_[static_cast<size_t>(i)] = staleness;
  }
}

double FreshnessTracker::StalenessMs(int slave_index) const {
  if (slave_index < 0 ||
      slave_index >= static_cast<int>(staleness_ms_.size())) {
    return -1.0;
  }
  return staleness_ms_[static_cast<size_t>(slave_index)];
}

std::function<double(int)> FreshnessTracker::Probe() {
  return [this](int slave_index) { return StalenessMs(slave_index); };
}

}  // namespace clouddb::control
