#ifndef CLOUDDB_FAULT_RECOVERY_OBSERVER_H_
#define CLOUDDB_FAULT_RECOVERY_OBSERVER_H_

#include <string>

#include "repl/failover.h"
#include "sim/simulation.h"
#include "common/time_types.h"

namespace clouddb::fault {

/// Recovery metrics for one injected-fault episode. Times are simulated
/// instants (µs); -1 means "never happened" / "not yet". Identical reports
/// across two same-seed runs is the determinism contract of the whole fault
/// subsystem, so the struct is equality-comparable.
struct RecoveryReport {
  SimTime fault_at = -1;        // primary fault began (NoteFault / listener)
  SimTime detected_at = -1;     // monitor tripped (declared master dead)
  SimTime promoted_at = -1;     // failover completed, new master live
  SimTime healed_at = -1;       // fault healed (NoteHeal / listener)
  SimTime reconverged_at = -1;  // first poll after heal with zero lag
  int64_t lost_writes = 0;      // committed-but-unreplicated events dropped
  int64_t peak_lag_events = 0;  // worst slave lag observed (binlog events)
  int64_t peak_relay_backlog = 0;  // worst relay-log backlog observed

  /// Derived durations; -1 when either endpoint is missing.
  SimDuration TimeToDetect() const;      // fault -> detection
  SimDuration TimeToPromote() const;     // detection -> promotion
  SimDuration TimeToReconverge() const;  // heal -> reconvergence

  std::string ToString() const;

  friend bool operator==(const RecoveryReport& a, const RecoveryReport& b) {
    return a.fault_at == b.fault_at && a.detected_at == b.detected_at &&
           a.promoted_at == b.promoted_at && a.healed_at == b.healed_at &&
           a.reconverged_at == b.reconverged_at &&
           a.lost_writes == b.lost_writes &&
           a.peak_lag_events == b.peak_lag_events &&
           a.peak_relay_backlog == b.peak_relay_backlog;
  }
  friend bool operator!=(const RecoveryReport& a, const RecoveryReport& b) {
    return !(a == b);
  }
};

/// Watches a FailoverManager-run replication tier through a fault episode
/// and produces a RecoveryReport:
///
///  - detection/promotion instants come from the manager's listeners;
///  - fault/heal instants come from NoteFault()/NoteHeal() — usually wired
///    to the FaultInjector's fault listener;
///  - lag/backlog peaks and the reconvergence instant come from a polling
///    loop, every kPollInterval, over the cluster's *current* master and
///    its active slaves (the set changes across failovers, so the observer
///    always asks the manager's cluster).
///
/// Reconvergence means: the heal has been noted and every active slave has
/// zero event lag, an empty relay log and a running SQL thread. Polling is a
/// repeating simulation event — Stop() before the final drain, like
/// ClusterMonitor.
class RecoveryObserver {
 public:
  static constexpr SimDuration kPollInterval = Millis(250);

  RecoveryObserver(sim::Simulation* sim, repl::FailoverManager* manager);

  RecoveryObserver(const RecoveryObserver&) = delete;
  RecoveryObserver& operator=(const RecoveryObserver&) = delete;

  /// Installs manager listeners and begins polling. Call once, before the
  /// fault fires.
  void Start();
  void Stop();

  /// Marks the primary fault instant. First call wins (a storm of faults is
  /// one episode measured from its first shot).
  void NoteFault();
  /// Marks the heal instant; reconvergence is only stamped after this.
  /// Last call wins (the episode ends when the last fault heals).
  void NoteHeal();

  const RecoveryReport& report() const { return report_; }

 private:
  void Poll();

  sim::Simulation* sim_;
  repl::FailoverManager* manager_;
  bool running_ = false;
  RecoveryReport report_;
  sim::PeriodicTimer poller_;
};

}  // namespace clouddb::fault

#endif  // CLOUDDB_FAULT_RECOVERY_OBSERVER_H_
