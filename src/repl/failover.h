#ifndef CLOUDDB_REPL_FAILOVER_H_
#define CLOUDDB_REPL_FAILOVER_H_

#include <functional>
#include <vector>

#include "net/network.h"
#include "repl/master_node.h"
#include "repl/replication_cluster.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"
#include "common/time_types.h"

namespace clouddb::repl {

/// Failover behaviour knobs.
struct FailoverOptions {
  /// Health-probe cadence and per-probe timeout.
  SimDuration check_interval = Seconds(1);
  SimDuration probe_timeout = Seconds(2);
  /// Consecutive probe failures before the master is declared dead.
  int failures_to_trip = 3;
};

/// Automatic failover management — the capability the paper names as the
/// reason the replication architecture "is running behind-the-scenes ...
/// to enable automatic failover management and ensure high availability"
/// (§I).
///
/// The manager keeps only failover *policy*; the topology belongs to the
/// ReplicationCluster. It runs on a monitor instance, pings the cluster's
/// master over the network, and on `failures_to_trip` consecutive probe
/// timeouts performs a failover:
///
///  1. elect the most-up-to-date healthy slave (max applied binlog index)
///     over the cluster's active slots, in index order;
///  2. promote it through ReplicationCluster::PromoteSlave, which adopts its
///     database into a new master and re-clones the other survivors;
///  3. report the new master so the application can repoint its proxy.
///
/// Writes that the old master committed but had not shipped are *lost* —
/// the inherent asynchronous-replication risk the paper's §II describes
/// ("once the updated replica goes offline before duplicating data, data
/// loss may occur"). `lost_writes_possible()` reports whether that happened.
class FailoverManager {
 public:
  FailoverManager(sim::Simulation* sim, net::Network* network,
                  net::NodeId monitor_node, ReplicationCluster* cluster,
                  const FailoverOptions& options);

  /// Starts periodic health checks.
  void Start();
  void Stop();

  /// The tier under watch: its master() is the current one, its active
  /// slots the surviving slaves.
  ReplicationCluster* cluster() const { return cluster_; }
  bool failover_performed() const { return promoted_slave_ != nullptr; }
  /// The slave that won the election (null before failover).
  SlaveNode* promoted_slave() const { return promoted_slave_; }
  int64_t probes_sent() const { return probes_sent_; }
  int64_t probes_failed() const { return probes_failed_; }
  /// True if the old master's binlog had events the promoted slave never
  /// applied (committed-but-unreplicated writes vanished).
  bool lost_writes_possible() const { return lost_writes_count_ > 0; }
  /// Number of committed binlog events the election winner had not applied
  /// at promotion time, summed over failovers — the writes that vanished.
  int64_t lost_writes_count() const { return lost_writes_count_; }

  /// Adds a listener fired right after a failover completes, with the new
  /// master (the RecoveryObserver rides along with the application's
  /// proxy-repoint listener).
  void AddFailoverListener(std::function<void(MasterNode*)> listener) {
    failover_listeners_.push_back(std::move(listener));
  }
  /// Adds a listener fired at the moment the manager declares the master
  /// dead (`failures_to_trip` consecutive probe failures), before any
  /// promotion work — the "time to detect" instant.
  void AddDetectionListener(std::function<void()> listener) {
    detection_listeners_.push_back(std::move(listener));
  }

 private:
  void Probe();
  void OnProbeResult(bool alive);
  void PerformFailover();

  sim::Simulation* sim_;
  net::Network* network_;
  net::NodeId monitor_node_;
  ReplicationCluster* cluster_;
  FailoverOptions options_;
  bool running_ = false;
  int consecutive_failures_ = 0;
  int64_t probes_sent_ = 0;
  int64_t probes_failed_ = 0;
  int64_t lost_writes_count_ = 0;
  SlaveNode* promoted_slave_ = nullptr;
  std::vector<std::function<void(MasterNode*)>> failover_listeners_;
  std::vector<std::function<void()>> detection_listeners_;
  /// Distinguishes replies to the current probe from stragglers of earlier
  /// probes (the reply callbacks capture the epoch they were sent under).
  int64_t probe_epoch_ = 0;
  bool probe_answered_ = false;
  /// Persistent kernel slots: one for the per-probe timeout guard, one for
  /// the inter-probe pause — re-armed every round, never reallocated.
  sim::Timer probe_timeout_;
  sim::Timer next_probe_;
};

}  // namespace clouddb::repl

#endif  // CLOUDDB_REPL_FAILOVER_H_
