#include "cloud/cloud_provider.h"
#include "cloud/instance.h"
#include "cloud/placement.h"
#include "common/time_types.h"
#include "net/network.h"
#include "sim/simulation.h"

#include <cassert>

namespace clouddb::cloud {

InstanceSpec SpecFor(InstanceType type) {
  switch (type) {
    case InstanceType::kSmall:
      // One virtual core at baseline speed: the unit all CPU costs are
      // calibrated against (the paper's m1.small).
      return InstanceSpec{1, 1.0};
    case InstanceType::kLarge:
      // Two faster cores (the paper's m1.large benchmark host, provisioned
      // so the load generator never saturates).
      return InstanceSpec{2, 2.0};
  }
  return InstanceSpec{1, 1.0};
}

Instance::Instance(sim::Simulation* sim, std::string name, InstanceType type,
                   Placement placement, net::NodeId node_id,
                   double speed_factor, SimDuration clock_offset,
                   double clock_drift_ppm)
    : sim_(sim),
      name_(std::move(name)),
      type_(type),
      placement_(std::move(placement)),
      node_id_(node_id),
      cpu_(sim, SpecFor(type).cores, speed_factor),
      clock_(clock_offset, clock_drift_ppm) {}

void Instance::Crash() {
  if (!running_) return;
  running_ = false;
  ++crash_count_;
  cpu_.Halt();
  for (const auto& listener : power_listeners_) listener(false);
}

void Instance::Restart() {
  if (running_) return;
  running_ = true;
  cpu_.Thaw();
  for (const auto& listener : power_listeners_) listener(true);
}

CloudProvider::CloudProvider(sim::Simulation* sim, const CloudOptions& options,
                             uint64_t seed)
    : sim_(sim), options_(options), rng_(seed) {
  network_ = std::make_unique<net::Network>(sim_, this);
}

Instance* CloudProvider::Launch(const std::string& name, InstanceType type,
                                const Placement& placement) {
  net::NodeId node_id = static_cast<net::NodeId>(instances_.size());
  InstanceSpec spec = SpecFor(type);
  double variation = rng_.ClampedNormal(
      1.0, options_.cpu_speed_cov, options_.min_speed_factor,
      options_.max_speed_factor);
  double speed = spec.base_speed * variation;
  SimDuration offset = static_cast<SimDuration>(rng_.Uniform(
      -static_cast<double>(options_.max_initial_clock_offset),
      static_cast<double>(options_.max_initial_clock_offset)));
  double drift = rng_.Uniform(-options_.max_clock_drift_ppm,
                              options_.max_clock_drift_ppm);
  instances_.push_back(std::make_unique<Instance>(
      sim_, name, type, placement, node_id, speed, offset, drift));
  return instances_.back().get();
}

Instance* CloudProvider::FindByName(const std::string& name) const {
  for (const auto& instance : instances_) {
    if (instance->name() == name) return instance.get();
  }
  return nullptr;
}

Instance* CloudProvider::FindByNode(net::NodeId node) const {
  if (node < 0 || static_cast<size_t>(node) >= instances_.size()) {
    return nullptr;
  }
  return instances_[static_cast<size_t>(node)].get();
}

SimDuration CloudProvider::BaseOneWay(Proximity p) const {
  switch (p) {
    case Proximity::kSameZone:
      return options_.same_zone_one_way;
    case Proximity::kDifferentZone:
      return options_.different_zone_one_way;
    case Proximity::kDifferentRegion:
      return options_.different_region_one_way;
  }
  return options_.same_zone_one_way;
}

SimDuration CloudProvider::SampleOneWay(net::NodeId from, net::NodeId to) {
  if (from == to) return options_.loopback_one_way;
  Instance* a = FindByNode(from);
  Instance* b = FindByNode(to);
  assert(a != nullptr && b != nullptr);
  SimDuration base = BaseOneWay(ClassifyProximity(a->placement(),
                                                  b->placement()));
  // Multiplicative lognormal jitter around the base latency.
  double jitter = rng_.LogNormal(1.0, options_.latency_jitter_sigma);
  SimDuration d = static_cast<SimDuration>(static_cast<double>(base) * jitter);
  return d < 0 ? 0 : d;
}

}  // namespace clouddb::cloud
