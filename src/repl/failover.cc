#include "repl/failover.h"

#include <cassert>

#include "net/network.h"
#include "repl/master_node.h"
#include "repl/replication_cluster.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"

namespace clouddb::repl {

FailoverManager::FailoverManager(sim::Simulation* sim, net::Network* network,
                                 net::NodeId monitor_node,
                                 ReplicationCluster* cluster,
                                 const FailoverOptions& options)
    : sim_(sim),
      network_(network),
      monitor_node_(monitor_node),
      cluster_(cluster),
      options_(options) {
  assert(options.failures_to_trip >= 1);
  probe_timeout_.Bind(sim_, [this] {
    if (probe_answered_) return;
    probe_answered_ = true;
    OnProbeResult(false);
  });
  next_probe_.Bind(sim_, [this] { Probe(); });
}

void FailoverManager::Start() {
  running_ = true;
  Probe();
}

void FailoverManager::Stop() {
  running_ = false;
  probe_timeout_.Cancel();
  next_probe_.Cancel();
}

void FailoverManager::Probe() {
  if (!running_) return;
  ++probes_sent_;
  int64_t epoch = ++probe_epoch_;
  probe_answered_ = false;
  MasterNode* target = cluster_->master();
  network_->Send(
      monitor_node_, target->node_id(), /*size_bytes=*/32,
      [this, target, epoch] {
        if (!target->online()) return;  // a dead node never replies
        network_->Send(target->node_id(), monitor_node_, /*size_bytes=*/32,
                       [this, epoch] {
                         // A straggler reply from a previous probe (its
                         // timeout already fired) must not answer this one.
                         if (epoch != probe_epoch_ || probe_answered_) return;
                         probe_answered_ = true;
                         probe_timeout_.Cancel();
                         OnProbeResult(true);
                       });
      });
  probe_timeout_.ArmAfter(options_.probe_timeout);
}

void FailoverManager::OnProbeResult(bool alive) {
  if (!running_) return;
  if (alive) {
    consecutive_failures_ = 0;
  } else {
    ++probes_failed_;
    ++consecutive_failures_;
    if (consecutive_failures_ >= options_.failures_to_trip) {
      for (const auto& listener : detection_listeners_) listener();
      PerformFailover();
      consecutive_failures_ = 0;
    }
  }
  next_probe_.ArmAfter(options_.check_interval);
}

void FailoverManager::PerformFailover() {
  // 1. Elect the most-up-to-date healthy slave.
  int winner = -1;
  for (int i = 0; i < cluster_->num_slaves(); ++i) {
    if (cluster_->IsSlaveRetired(i)) continue;
    SlaveNode* slave = cluster_->slave(i);
    if (!slave->online() || slave->replication_broken()) continue;
    if (winner < 0 ||
        slave->applied_index() > cluster_->slave(winner)->applied_index()) {
      winner = i;
    }
  }
  if (winner < 0) return;  // nothing to promote; keep probing
  SlaveNode* promoted = cluster_->slave(winner);

  // Were there committed-but-unshipped writes on the dead master? (We can
  // see its binlog in the simulator; a real system only discovers this from
  // the wreckage later.)
  int64_t unapplied =
      cluster_->master()->binlog_size() - 1 - promoted->applied_index();
  if (unapplied > 0) lost_writes_count_ += unapplied;

  // 2. Promote, re-cloning the other survivors onto the new timeline (the
  //    winner is an active slot, so the cluster accepts it).
  if (!cluster_->PromoteSlave(winner).ok()) return;
  promoted_slave_ = promoted;
  for (const auto& listener : failover_listeners_) {
    listener(cluster_->master());
  }
}

}  // namespace clouddb::repl
