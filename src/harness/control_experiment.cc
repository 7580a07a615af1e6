#include "harness/control_experiment.h"

#include <algorithm>
#include <memory>

#include "client/rw_split_proxy.h"
#include "cloudstone/benchmark_driver.h"
#include "cloudstone/operations.h"
#include "cloudstone/schema.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/str_util.h"
#include "control/elasticity_controller.h"
#include "control/freshness_tracker.h"
#include "harness/deployment.h"
#include "metrics/metric_registry.h"
#include "repl/heartbeat.h"
#include "repl/replication_cluster.h"
#include "sim/simulation.h"
#include "common/time_types.h"

namespace clouddb::harness {

std::string ControlExperimentResult::TimelineString() const {
  std::string out;
  for (const control::ScalingEvent& event : scaling_events) {
    out += StrFormat("  %-10s t=%-12s active=%d  (%s)\n",
                     control::ScalingActionToString(event.action),
                     FormatDuration(event.at).c_str(), event.num_active,
                     event.reason.c_str());
  }
  if (out.empty()) out = "  (no scaling events)\n";
  return out;
}

Result<ControlExperimentResult> RunControlExperiment(
    const ControlExperimentConfig& config) {
  Rng seeder(config.seed);
  uint64_t derived_placement_seed = seeder.NextU64();
  repl::ClusterConfig cluster_config;
  cluster_config.num_slaves = config.initial_slaves;
  cluster_config.cost_model =
      cloudstone::MakeWorkloadCostModel(config.costs, config.apply_factor);
  client::ProxyOptions proxy_options;
  proxy_options.policy = client::BalancePolicy::kFreshnessAware;
  proxy_options.route_cache = config.statement_cache;
  proxy_options.pool.max_active =
      std::max(8, config.base_users + config.surge_users);
  Deployment d(config.cloud,
               config.placement_seed.value_or(derived_placement_seed),
               cluster_config, proxy_options);
  d.cluster.SetStatementCacheEnabled(config.statement_cache);
  CLOUDDB_RETURN_IF_ERROR(d.Load(config.data_scale, seeder.NextU64()));

  repl::HeartbeatPlugin heartbeat(&d.sim, d.cluster.master(), config.heartbeat);
  CLOUDDB_RETURN_IF_ERROR(heartbeat.CreateTable());
  heartbeat.Start();

  // The control plane: tracker feeds the proxy's SLA router and the
  // controller's lag signal.
  control::FreshnessTracker tracker(&d.sim, &d.cluster, config.tracker);
  d.proxy.SetStalenessProbe(tracker.Probe());
  tracker.Start();
  control::ElasticityController controller(&d.sim, &d.cluster, &d.proxy,
                                           tracker.Probe(),
                                           config.controller);
  if (config.enable_controller) controller.Start();

  // Worst-staleness watermark, sampled at the tracker's own cadence.
  double peak_staleness_ms = 0.0;
  sim::PeriodicTimer staleness_watermark;
  staleness_watermark.Start(&d.sim, config.tracker.poll_period, [&] {
    for (int i = 0; i < d.cluster.num_slaves(); ++i) {
      peak_staleness_ms = std::max(peak_staleness_ms, tracker.StalenessMs(i));
    }
  });

  // Workload: base users for the whole measured window, surge users for the
  // load step in the middle of it. Every read carries the staleness bound.
  cloudstone::OperationGenerator generator(
      config.mix, config.costs, &d.state,
      [app = d.app] { return app->LocalNowMicros(); });
  cloudstone::MetricsCollector collector;
  client::ReadOptions read_options;
  read_options.max_staleness = config.staleness_bound;

  SimTime measure_start = d.sim.Now() + config.warmup;
  SimTime measure_end = measure_start + config.measure;
  SimTime surge_start = measure_start + config.surge_start;
  SimTime surge_end = surge_start + config.surge_duration;

  std::vector<std::unique_ptr<cloudstone::UserEmulator>> users;
  for (int u = 0; u < config.base_users + config.surge_users; ++u) {
    users.push_back(std::make_unique<cloudstone::UserEmulator>(
        &d.sim, &d.proxy, &generator, &collector, Rng(seeder.NextU64()),
        config.think_time_mean));
    users.back()->set_read_options(read_options);
    bool surge = u >= config.base_users;
    users.back()->Activate(surge ? surge_start : measure_start,
                           surge ? surge_end : measure_end);
  }

  d.sim.RunUntil(measure_end);
  heartbeat.Stop();
  tracker.Stop();
  controller.Stop();
  staleness_watermark.Stop();
  d.sim.Run();  // drain in-flight operations and relay logs
  bool fully_replicated = d.cluster.FullyReplicated();
  if (!fully_replicated || !d.cluster.Converged()) {
    return Status::Internal(StrFormat(
        "%d+%d users, staleness bound %s: %s after the drain",
        config.base_users, config.surge_users,
        config.staleness_bound < 0
            ? "none"
            : FormatDuration(config.staleness_bound).c_str(),
        !fully_replicated ? "a slave has not applied the whole binlog"
                          : "the replicas' contents differ"));
  }

  ControlExperimentResult result;
  const metrics::MetricRegistry& pm = d.proxy.metrics();
  result.bounded_reads = pm.FindCounter("proxy.reads.bounded")->value();
  result.bounded_to_slave =
      pm.FindCounter("proxy.reads.bounded_to_slave")->value();
  result.master_fallbacks =
      pm.FindCounter("proxy.reads.master_fallback")->value();
  result.read_retries = pm.FindCounter("proxy.reads.retries")->value();
  result.sla_checked = pm.FindCounter("proxy.sla.checked")->value();
  result.sla_violations = pm.FindCounter("proxy.sla.violations")->value();
  if (result.bounded_reads > 0) {
    result.achieved_freshness_pct =
        100.0 * static_cast<double>(result.bounded_reads -
                                    result.sla_violations) /
        static_cast<double>(result.bounded_reads);
    result.master_offload_pct =
        100.0 * static_cast<double>(result.bounded_to_slave) /
        static_cast<double>(result.bounded_reads);
  }

  result.scale_outs =
      controller.metrics().FindCounter("control.scale_out.total")->value();
  result.scale_ins =
      controller.metrics().FindCounter("control.scale_in.total")->value();
  result.final_active_slaves = d.cluster.num_active_slaves();
  result.scaling_events = controller.events();
  int active = config.initial_slaves;
  result.peak_active_slaves = active;
  for (const control::ScalingEvent& event : result.scaling_events) {
    active = event.num_active;
    result.peak_active_slaves = std::max(result.peak_active_slaves, active);
  }
  result.peak_staleness_ms = peak_staleness_ms;

  result.completed_ops =
      collector.CountInWindow(measure_start, measure_end);
  result.failed_ops = collector.failures();
  result.throughput_ops = static_cast<double>(result.completed_ops) /
                          (static_cast<double>(config.measure) / 1e6);
  Sample responses = collector.ResponseTimesMs(measure_start, measure_end);
  result.mean_response_ms = responses.Mean();

  // The cluster-wide spine: one registry per node/tier, merged. Same-name
  // metrics across slaves aggregate (counters add, gauges sum, EWMAs
  // count-weight); the table is deterministic by construction.
  metrics::MetricRegistry total("cluster");
  total.MergeFrom(d.cluster.master()->metrics());
  for (int i = 0; i < d.cluster.num_slaves(); ++i) {
    total.MergeFrom(d.cluster.slave(i)->metrics());
  }
  total.MergeFrom(d.proxy.metrics());
  total.MergeFrom(tracker.metrics());
  total.MergeFrom(controller.metrics());
  result.metrics_table = total.ToString();
  return result;
}

}  // namespace clouddb::harness
