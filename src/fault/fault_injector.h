#ifndef CLOUDDB_FAULT_FAULT_INJECTOR_H_
#define CLOUDDB_FAULT_FAULT_INJECTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_provider.h"
#include "common/status.h"
#include "fault/fault_schedule.h"
#include "sim/simulation.h"
#include "common/time_types.h"
#include "net/network.h"

namespace clouddb::fault {

/// One action the injector actually performed (begin or heal), for the
/// post-run timeline report.
struct AppliedFault {
  SimTime at = 0;
  std::string description;
};

/// Executes a FaultSchedule against a running deployment. Arm() validates
/// every event (targets must be launched instances, magnitudes in range)
/// and schedules begin/heal actions on the simulation's event queue; from
/// then on the injector needs no further driving. Because everything runs
/// on the deterministic event queue, two runs with the same schedule and
/// seed inject the exact same adversity at the exact same instants.
class FaultInjector {
 public:
  FaultInjector(sim::Simulation* sim, cloud::CloudProvider* provider);

  /// Cancels every still-pending begin/heal event: the scheduled lambdas
  /// capture `this`, so they must not fire after the injector is gone.
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Validates and schedules every event of `schedule`. May be called more
  /// than once (schedules accumulate). Returns InvalidArgument on unknown
  /// instance names, out-of-range magnitudes, negative times/durations,
  /// self-partitions, or two windows of one kind on one target (link faults:
  /// one endpoint pair, either order) that overlap or touch, counting events
  /// armed earlier — nothing is scheduled on error.
  Status Arm(const FaultSchedule& schedule);

  /// `listener(event, begin)` fires as each fault begins (begin = true) and
  /// heals (begin = false). The RecoveryObserver hangs off this to stamp
  /// fault/heal instants without the scenario wiring them by hand.
  void SetFaultListener(std::function<void(const FaultEvent&, bool)> listener) {
    listener_ = std::move(listener);
  }

  /// Chronological record of every action performed so far.
  const std::vector<AppliedFault>& log() const { return log_; }
  int64_t faults_begun() const { return faults_begun_; }
  int64_t faults_healed() const { return faults_healed_; }

 private:
  Status Validate(const FaultEvent& event) const;
  void Begin(const FaultEvent& event);
  void Heal(const FaultEvent& event);
  void Record(const FaultEvent& event, bool begin);
  /// Both directions of the target<->peer link.
  void ForEachDirection(
      const FaultEvent& event,
      const std::function<void(net::NodeId, net::NodeId)>& apply);

  sim::Simulation* sim_;
  cloud::CloudProvider* provider_;
  std::function<void(const FaultEvent&, bool)> listener_;
  std::vector<AppliedFault> log_;
  int64_t faults_begun_ = 0;
  int64_t faults_healed_ = 0;
  /// Armed events live here so begin/heal lambdas have a stable address.
  std::vector<std::unique_ptr<FaultEvent>> armed_;
  /// Kernel handles for every scheduled begin/heal, cancelled on teardown.
  std::vector<sim::Simulation::EventHandle> scheduled_;
  /// Pre-fault CPU speed of each slowed instance, for its heal.
  std::map<std::string, double> saved_speeds_;
};

}  // namespace clouddb::fault

#endif  // CLOUDDB_FAULT_FAULT_INJECTOR_H_
