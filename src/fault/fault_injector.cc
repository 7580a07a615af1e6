#include "fault/fault_injector.h"

#include <limits>
#include <utility>

#include "common/str_util.h"
#include "cloud/cloud_provider.h"
#include "cloud/instance.h"
#include "common/status.h"
#include "fault/fault_schedule.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "common/time_types.h"

namespace clouddb::fault {

namespace {

bool IsLinkFault(FaultKind kind) {
  return kind == FaultKind::kPartition || kind == FaultKind::kLatencySpike ||
         kind == FaultKind::kPacketLoss;
}

/// True when `a` and `b` are faults of one kind on one target whose windows
/// overlap or touch. The injector applies and heals through on/off hooks, so
/// the first heal would end both windows; at a shared instant the outcome
/// would hang on the order the events were listed. A link fault's target is
/// the unordered endpoint pair, a permanent fault (duration 0) never ends,
/// and clock steps are instantaneous.
bool WindowsCollide(const FaultEvent& a, const FaultEvent& b) {
  if (a.kind != b.kind || a.kind == FaultKind::kClockStep) return false;
  bool same_target = a.target == b.target;
  if (IsLinkFault(a.kind)) {
    same_target = (same_target && a.peer == b.peer) ||
                  (a.target == b.peer && a.peer == b.target);
  }
  if (!same_target) return false;
  auto end = [](const FaultEvent& e) {
    return e.duration == 0 ? std::numeric_limits<SimTime>::max()
                           : e.at + e.duration;
  };
  return a.at <= end(b) && b.at <= end(a);
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulation* sim,
                             cloud::CloudProvider* provider)
    : sim_(sim), provider_(provider) {}

FaultInjector::~FaultInjector() {
  for (sim::Simulation::EventHandle& handle : scheduled_) handle.Cancel();
}

Status FaultInjector::Validate(const FaultEvent& event) const {
  if (event.at < 0) {
    return Status::InvalidArgument(
        StrFormat("fault '%s': negative start time", event.target.c_str()));
  }
  if (event.duration < 0) {
    return Status::InvalidArgument(
        StrFormat("fault '%s': negative duration", event.target.c_str()));
  }
  if (provider_->FindByName(event.target) == nullptr) {
    return Status::InvalidArgument(
        StrFormat("unknown instance '%s'", event.target.c_str()));
  }
  if (IsLinkFault(event.kind)) {
    if (provider_->FindByName(event.peer) == nullptr) {
      return Status::InvalidArgument(
          StrFormat("unknown instance '%s'", event.peer.c_str()));
    }
    if (event.peer == event.target) {
      return Status::InvalidArgument(StrFormat(
          "link fault needs two distinct endpoints, got '%s' twice",
          event.target.c_str()));
    }
  }
  if (event.kind == FaultKind::kSlowdown && event.magnitude <= 0.0) {
    return Status::InvalidArgument(
        StrFormat("slowdown factor must be > 0, got %.3f", event.magnitude));
  }
  if (event.kind == FaultKind::kPacketLoss &&
      (event.magnitude < 0.0 || event.magnitude > 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "loss probability must be in [0, 1], got %.3f", event.magnitude));
  }
  return Status::Ok();
}

Status FaultInjector::Arm(const FaultSchedule& schedule) {
  std::vector<const FaultEvent*> windows;
  for (const auto& armed : armed_) windows.push_back(armed.get());
  for (const FaultEvent& event : schedule.events()) {
    CLOUDDB_RETURN_IF_ERROR(Validate(event));
    for (const FaultEvent* other : windows) {
      if (WindowsCollide(*other, event)) {
        return Status::InvalidArgument(StrFormat(
            "faults '%s' and '%s' overlap: one kind on one target",
            other->ToString().c_str(), event.ToString().c_str()));
      }
    }
    windows.push_back(&event);
  }
  // All valid: schedule everything. Heap copies give the begin/heal lambdas
  // a stable event to point at across vector growth.
  for (const FaultEvent& event : schedule.events()) {
    armed_.push_back(std::make_unique<FaultEvent>(event));
    const FaultEvent* armed = armed_.back().get();
    scheduled_.push_back(
        sim_->ScheduleAt(armed->at, [this, armed] { Begin(*armed); }));
    // Clock steps are instantaneous; duration 0 elsewhere means permanent.
    if (armed->duration > 0 && armed->kind != FaultKind::kClockStep) {
      scheduled_.push_back(sim_->ScheduleAt(armed->at + armed->duration,
                                            [this, armed] { Heal(*armed); }));
    }
  }
  return Status::Ok();
}

void FaultInjector::ForEachDirection(
    const FaultEvent& event,
    const std::function<void(net::NodeId, net::NodeId)>& apply) {
  net::NodeId a = provider_->FindByName(event.target)->node_id();
  net::NodeId b = provider_->FindByName(event.peer)->node_id();
  apply(a, b);
  apply(b, a);
}

void FaultInjector::Begin(const FaultEvent& event) {
  cloud::Instance* target = provider_->FindByName(event.target);
  net::Network& net = provider_->network();
  switch (event.kind) {
    case FaultKind::kCrash:
      target->Crash();
      break;
    case FaultKind::kFreeze:
      target->cpu().Freeze();
      break;
    case FaultKind::kSlowdown: {
      double speed = target->cpu().speed_factor();
      saved_speeds_[event.target] = speed;
      target->cpu().SetSpeedFactor(speed * event.magnitude);
      break;
    }
    case FaultKind::kPartition:
      ForEachDirection(event, [&net](net::NodeId from, net::NodeId to) {
        net.SetLinkDown(from, to, true);
      });
      break;
    case FaultKind::kIsolate:
      net.SetNodeIsolated(target->node_id(), true);
      break;
    case FaultKind::kLatencySpike:
      ForEachDirection(event, [&net, &event](net::NodeId from, net::NodeId to) {
        net.SetLinkExtraLatency(from, to, event.delta);
      });
      break;
    case FaultKind::kPacketLoss:
      ForEachDirection(event, [&net, &event](net::NodeId from, net::NodeId to) {
        net.SetLinkLossProbability(from, to, event.magnitude);
      });
      break;
    case FaultKind::kClockStep:
      target->clock().StepBy(sim_->Now(), event.delta);
      break;
  }
  Record(event, /*begin=*/true);
}

void FaultInjector::Heal(const FaultEvent& event) {
  cloud::Instance* target = provider_->FindByName(event.target);
  net::Network& net = provider_->network();
  switch (event.kind) {
    case FaultKind::kCrash:
      target->Restart();
      break;
    case FaultKind::kFreeze:
      target->cpu().Thaw();
      break;
    case FaultKind::kSlowdown: {
      // Arm admits one slowdown window per instance at a time, so this
      // heal's saved speed is the only one pending.
      auto it = saved_speeds_.find(event.target);
      target->cpu().SetSpeedFactor(it->second);
      saved_speeds_.erase(it);
      break;
    }
    case FaultKind::kPartition:
      ForEachDirection(event, [&net](net::NodeId from, net::NodeId to) {
        net.SetLinkDown(from, to, false);
      });
      break;
    case FaultKind::kIsolate:
      net.SetNodeIsolated(target->node_id(), false);
      break;
    case FaultKind::kLatencySpike:
      ForEachDirection(event, [&net](net::NodeId from, net::NodeId to) {
        net.SetLinkExtraLatency(from, to, 0);
      });
      break;
    case FaultKind::kPacketLoss:
      ForEachDirection(event, [&net](net::NodeId from, net::NodeId to) {
        net.SetLinkLossProbability(from, to, 0.0);
      });
      break;
    case FaultKind::kClockStep:
      break;  // one-shot, never scheduled
  }
  Record(event, /*begin=*/false);
}

void FaultInjector::Record(const FaultEvent& event, bool begin) {
  if (begin) {
    ++faults_begun_;
  } else {
    ++faults_healed_;
  }
  log_.push_back({sim_->Now(),
                  StrFormat("%s %s %s", begin ? "begin" : "heal",
                            FaultKindToString(event.kind),
                            event.target.c_str())});
  if (listener_) listener_(event, begin);
}

}  // namespace clouddb::fault
