#ifndef CLOUDDB_CONTROL_ELASTICITY_CONTROLLER_H_
#define CLOUDDB_CONTROL_ELASTICITY_CONTROLLER_H_

#include <functional>
#include <string>
#include <vector>

#include "client/rw_split_proxy.h"
#include "common/time_types.h"
#include "metrics/metric_registry.h"
#include "repl/replication_cluster.h"
#include "sim/simulation.h"

namespace clouddb::control {

struct ElasticityControllerOptions {
  /// Control-loop cadence.
  SimDuration tick = Seconds(1);
  /// Scale OUT when the worst active-slave staleness stays above this...
  double scale_out_staleness_ms = 500.0;
  /// ...or when mean active-slave CPU saturation stays above this.
  double scale_out_saturation = 0.85;
  /// Scale IN only when staleness is below this AND saturation is below
  /// scale_in_saturation — the hysteresis gap between the out- and
  /// in-thresholds is what keeps the controller from flapping on a signal
  /// hovering near a single threshold.
  double scale_in_staleness_ms = 100.0;
  double scale_in_saturation = 0.40;
  /// A signal must hold for this many consecutive ticks to trigger — a
  /// one-tick spike (GC pause, load burst) never scales the tier.
  int sustain_ticks = 3;
  /// Ticks after any action during which no further action fires; covers
  /// the time a fresh replica needs to absorb load before re-evaluating.
  int cooldown_ticks = 5;
  int min_active_slaves = 1;
  int max_active_slaves = 8;
};

enum class ScalingAction { kScaleOut, kScaleIn };

const char* ScalingActionToString(ScalingAction action);

struct ScalingEvent {
  SimTime at = 0;
  ScalingAction action = ScalingAction::kScaleOut;
  /// Active replica count after the action.
  int num_active = 0;
  std::string reason;
};

/// The application-managed elasticity loop the paper motivates: the
/// application itself watches replication lag and replica saturation and
/// reconfigures its own database tier — adding replicas under sustained
/// pressure, retiring them when idle — because the cloud provider cannot see
/// inside the replication protocol. Scale-out prefers reviving a retired
/// replica (re-attach + binlog resync of the missed span) over paying for a
/// fresh instance (a copy of the master's tables).
class ElasticityController {
 public:
  /// `proxy` may be null (the cluster still scales; no read rerouting).
  /// `staleness_probe` is FreshnessTracker::Probe() in production; tests may
  /// inject any signal.
  ElasticityController(sim::Simulation* sim,
                       repl::ReplicationCluster* cluster,
                       client::ReadWriteSplitProxy* proxy,
                       std::function<double(int)> staleness_probe,
                       ElasticityControllerOptions options = {});

  void Start();
  void Stop();

  /// One control-loop evaluation (also driven by the periodic timer).
  void Tick();

  const std::vector<ScalingEvent>& events() const { return events_; }
  int64_t ticks() const { return ticks_->value(); }
  /// Signals as of the last Tick (staleness < 0 = unknown).
  double last_staleness_ms() const { return last_staleness_ms_; }
  double last_saturation() const { return last_saturation_; }
  metrics::MetricRegistry& metrics() { return metrics_; }

 private:
  void ScaleOut(const std::string& reason);
  void ScaleIn(const std::string& reason);
  /// Worst known staleness over active slaves; -1 when none is measurable.
  double WorstStalenessMs() const;
  /// Mean busy fraction of active slaves since the previous tick.
  double MeanSaturation();

  sim::Simulation* sim_;
  repl::ReplicationCluster* cluster_;
  client::ReadWriteSplitProxy* proxy_;
  std::function<double(int)> staleness_probe_;
  ElasticityControllerOptions options_;
  std::vector<ScalingEvent> events_;
  /// CumulativeBusyMicros as of the previous tick, per slave (grows as the
  /// cluster does; a slave first seen mid-run starts from its current value).
  std::vector<int64_t> last_busy_micros_;
  SimTime last_tick_at_ = 0;
  int out_streak_ = 0;
  int in_streak_ = 0;
  int cooldown_remaining_ = 0;
  double last_staleness_ms_ = -1.0;
  double last_saturation_ = 0.0;
  metrics::MetricRegistry metrics_;
  metrics::Counter* ticks_ = nullptr;
  metrics::Counter* scale_outs_ = nullptr;
  metrics::Counter* scale_ins_ = nullptr;
  sim::PeriodicTimer ticker_;
};

}  // namespace clouddb::control

#endif  // CLOUDDB_CONTROL_ELASTICITY_CONTROLLER_H_
