#ifndef CLOUDDB_CLOUD_INSTANCE_H_
#define CLOUDDB_CLOUD_INSTANCE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cloud/placement.h"
#include "net/network.h"
#include "sim/cpu_scheduler.h"
#include "sim/local_clock.h"
#include "sim/simulation.h"
#include "common/time_types.h"

namespace clouddb::cloud {

/// EC2-style instance sizes. The paper runs the master and all slaves on
/// *small* instances ("so that saturation is expected to be observed early")
/// and the benchmark driver on a *large* instance.
enum class InstanceType {
  kSmall,
  kLarge,
};

/// Nominal core count / per-core speed for an instance type.
struct InstanceSpec {
  int cores;
  double base_speed;
};

InstanceSpec SpecFor(InstanceType type);

/// A launched virtual machine: compute (CpuScheduler), a drifting local clock,
/// a network endpoint, and a placement. The actual per-instance speed deviates
/// from the type's nominal speed by the sampled performance-variation factor
/// (paper §IV-A: poor-performing instances "are launched randomly and can
/// largely affect application performance").
class Instance {
 public:
  Instance(sim::Simulation* sim, std::string name, InstanceType type,
           Placement placement, net::NodeId node_id, double speed_factor,
           SimDuration clock_offset, double clock_drift_ppm);

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  const std::string& name() const { return name_; }
  InstanceType type() const { return type_; }
  const Placement& placement() const { return placement_; }
  net::NodeId node_id() const { return node_id_; }

  /// Effective speed: nominal speed for the type times the sampled variation.
  double speed_factor() const { return cpu_.speed_factor(); }

  sim::CpuScheduler& cpu() { return cpu_; }
  const sim::CpuScheduler& cpu() const { return cpu_; }
  sim::LocalClock& clock() { return clock_; }
  const sim::LocalClock& clock() const { return clock_; }

  /// Local wall time right now (µs); what applications on this instance see.
  int64_t LocalNowMicros() const { return clock_.NowMicros(sim_->Now()); }

  // --- Instance-level faults (see clouddb::fault::FaultInjector) ---

  /// True while the VM is powered on. Crashed instances keep their network
  /// endpoint (messages to them are delivered into processes that check
  /// `running()`/`online()` and stay silent) but lose all in-flight and
  /// queued CPU work.
  bool running() const { return running_; }

  /// Instance failure: halts the CPU (queued and in-flight jobs evaporate)
  /// and notifies power listeners with `false`. Idempotent. Durable state —
  /// each DbNode's database, modelling an EBS volume — survives; volatile
  /// state (relay logs, CPU queues) is the listeners' job to discard.
  void Crash();

  /// Boots the instance back up: resumes the CPU and notifies power
  /// listeners with `true`. Idempotent.
  void Restart();

  /// Registers `listener(running)` to fire on every Crash()/Restart()
  /// transition. Listeners (the DbNodes hosted here) must outlive the
  /// instance or never receive an event after their destruction — in
  /// practice: do not run the simulation after destroying hosted nodes.
  void AddPowerListener(std::function<void(bool)> listener) {
    power_listeners_.push_back(std::move(listener));
  }

  /// Uptime counters: number of crashes survived.
  int64_t crash_count() const { return crash_count_; }

 private:
  sim::Simulation* sim_;
  std::string name_;
  InstanceType type_;
  Placement placement_;
  net::NodeId node_id_;
  sim::CpuScheduler cpu_;
  sim::LocalClock clock_;
  bool running_ = true;
  int64_t crash_count_ = 0;
  std::vector<std::function<void(bool)>> power_listeners_;
};

}  // namespace clouddb::cloud

#endif  // CLOUDDB_CLOUD_INSTANCE_H_
