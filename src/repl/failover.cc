#include "repl/failover.h"

#include <algorithm>
#include <cassert>

#include "db/database.h"
#include "net/network.h"
#include "repl/master_node.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"

namespace clouddb::repl {

FailoverManager::FailoverManager(sim::Simulation* sim, net::Network* network,
                                 net::NodeId monitor_node, MasterNode* master,
                                 std::vector<SlaveNode*> slaves,
                                 const FailoverOptions& options)
    : sim_(sim),
      network_(network),
      monitor_node_(monitor_node),
      master_(master),
      slaves_(std::move(slaves)),
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

MasterNode* FailoverManager::current_master() { return master_; }

void FailoverManager::Probe() {
  if (!running_) return;
  ++probes_sent_;
  int64_t epoch = ++probe_epoch_;
  probe_answered_ = false;
  MasterNode* target = master_;
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
  SlaveNode* winner = nullptr;
  for (SlaveNode* slave : slaves_) {
    if (!slave->online() || slave->replication_broken()) continue;
    if (winner == nullptr || slave->applied_index() > winner->applied_index()) {
      winner = slave;
    }
  }
  if (winner == nullptr) return;  // nothing to promote; keep probing

  // Were there committed-but-unshipped writes on the dead master? (We can
  // see its binlog in the simulator; a real system only discovers this from
  // the wreckage later.)
  if (master_->binlog_size() - 1 > winner->applied_index()) {
    lost_writes_possible_ = true;
    lost_writes_count_ += master_->binlog_size() - 1 - winner->applied_index();
  }

  // 2. Promote: a new MasterNode on the winner's instance adopts its data.
  promoted_slave_ = winner;
  owned_masters_.push_back(std::make_unique<MasterNode>(
      sim_, network_, &winner->instance(), winner->cost_model(),
      winner->ReleaseDatabase()));
  MasterNode* new_master = owned_masters_.back().get();

  // 3. Resynchronize the other survivors and re-attach them to the new
  //    binlog timeline.
  std::vector<SlaveNode*> survivors;
  for (SlaveNode* slave : slaves_) {
    if (slave == winner || !slave->online()) continue;
    slave->database().CopyTablesFrom(new_master->database());
    slave->ReattachToNewTimeline(new_master);
    new_master->AttachSlave(slave);
    survivors.push_back(slave);
  }
  slaves_ = std::move(survivors);
  master_ = new_master;
  for (const auto& listener : failover_listeners_) listener(new_master);
}

}  // namespace clouddb::repl
