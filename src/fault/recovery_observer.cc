#include "fault/recovery_observer.h"

#include <algorithm>

#include "common/str_util.h"
#include "common/time_types.h"
#include "repl/failover.h"
#include "repl/master_node.h"
#include "repl/replication_cluster.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"

namespace clouddb::fault {
namespace {

SimDuration Between(SimTime from, SimTime to) {
  if (from < 0 || to < 0) return -1;
  return to - from;
}

std::string DurationOrDash(SimDuration d) {
  return d < 0 ? "-" : FormatDuration(d);
}

}  // namespace

SimDuration RecoveryReport::TimeToDetect() const {
  return Between(fault_at, detected_at);
}

SimDuration RecoveryReport::TimeToPromote() const {
  return Between(detected_at, promoted_at);
}

SimDuration RecoveryReport::TimeToReconverge() const {
  return Between(healed_at, reconverged_at);
}

std::string RecoveryReport::ToString() const {
  return StrFormat(
      "time-to-detect      %s\n"
      "time-to-promote     %s\n"
      "lost writes         %lld\n"
      "peak lag            %lld events\n"
      "peak relay backlog  %lld events\n"
      "time-to-reconverge  %s\n",
      DurationOrDash(TimeToDetect()).c_str(),
      DurationOrDash(TimeToPromote()).c_str(),
      static_cast<long long>(lost_writes),
      static_cast<long long>(peak_lag_events),
      static_cast<long long>(peak_relay_backlog),
      DurationOrDash(TimeToReconverge()).c_str());
}

RecoveryObserver::RecoveryObserver(sim::Simulation* sim,
                                   repl::FailoverManager* manager)
    : sim_(sim), manager_(manager) {}

void RecoveryObserver::Start() {
  if (running_) return;
  running_ = true;
  manager_->AddDetectionListener([this] {
    if (report_.detected_at < 0) report_.detected_at = sim_->Now();
  });
  manager_->AddFailoverListener([this](repl::MasterNode*) {
    if (report_.promoted_at < 0) report_.promoted_at = sim_->Now();
  });
  poller_.Start(sim_, kPollInterval, [this] { Poll(); });
}

void RecoveryObserver::Stop() {
  running_ = false;
  poller_.Stop();
}

void RecoveryObserver::NoteFault() {
  if (report_.fault_at < 0) report_.fault_at = sim_->Now();
}

void RecoveryObserver::NoteHeal() { report_.healed_at = sim_->Now(); }

void RecoveryObserver::Poll() {
  if (!running_) return;
  repl::ReplicationCluster* cluster = manager_->cluster();
  repl::MasterNode* master = cluster->master();
  bool all_caught_up = true;
  for (int i = 0; i < cluster->num_slaves(); ++i) {
    if (cluster->IsSlaveRetired(i)) continue;
    repl::SlaveNode* slave = cluster->slave(i);
    int64_t lag = master->binlog_size() - 1 - slave->applied_index();
    if (lag < 0) lag = 0;
    report_.peak_lag_events = std::max(report_.peak_lag_events, lag);
    report_.peak_relay_backlog =
        std::max(report_.peak_relay_backlog,
                 static_cast<int64_t>(slave->relay_backlog()));
    if (lag != 0 || slave->relay_backlog() != 0 ||
        slave->replication_broken()) {
      all_caught_up = false;
    }
  }
  report_.lost_writes = manager_->lost_writes_count();
  if (report_.healed_at >= 0 && report_.reconverged_at < 0 && all_caught_up) {
    report_.reconverged_at = sim_->Now();
  }
}

}  // namespace clouddb::fault
