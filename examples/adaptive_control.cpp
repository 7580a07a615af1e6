// Adaptive control: the "application-managed" loop closed end to end. A
// staleness-bounded workload runs against a one-slave tier; a mid-run load
// surge drives replication lag up; the freshness tracker measures it from
// the heartbeat table, the proxy routes bounded reads around stale replicas,
// and the elasticity controller grows the tier — then retires the extra
// replica once the surge drains.
//
// Quickstart for a staleness-bounded read (what every user in this example
// issues):
//
//   client::ReadOptions bounded;
//   bounded.max_staleness = Millis(500);   // "at most 0.5 s stale"
//   proxy.Execute(sql, cpu_cost, bounded, [](auto result) { ... });

#include <cstdio>

#include "common/time_types.h"
#include "control/elasticity_controller.h"
#include "harness/control_experiment.h"

int main() {
  using namespace clouddb;

  harness::ControlExperimentConfig config;
  config.staleness_bound = Millis(500);
  config.base_users = 10;
  config.surge_users = 40;
  config.warmup = Seconds(30);
  config.measure = Minutes(6);
  config.surge_start = Minutes(1);
  config.surge_duration = Minutes(2);
  config.initial_slaves = 1;
  config.controller.max_active_slaves = 4;
  config.seed = 7;

  std::printf("1 master + %d slave, %d base users, %d-user surge in the "
              "middle, every read bounded to %lld ms staleness...\n",
              config.initial_slaves, config.base_users, config.surge_users,
              static_cast<long long>(config.staleness_bound / 1000));

  auto outcome = harness::RunControlExperiment(config);
  if (!outcome.ok()) {
    std::printf("run failed: %s\n", outcome.status().ToString().c_str());
    return 1;
  }
  const harness::ControlExperimentResult& r = *outcome;

  std::printf("\n-- freshness-SLA routing --\n");
  std::printf("bounded reads         : %lld\n",
              static_cast<long long>(r.bounded_reads));
  std::printf("served by a replica   : %lld (%.1f%% master offload)\n",
              static_cast<long long>(r.bounded_to_slave),
              r.master_offload_pct);
  std::printf("master fallbacks      : %lld\n",
              static_cast<long long>(r.master_fallbacks));
  std::printf("mid-query retries     : %lld\n",
              static_cast<long long>(r.read_retries));
  std::printf("achieved freshness    : %.2f%% (%lld violations at "
              "completion)\n",
              r.achieved_freshness_pct,
              static_cast<long long>(r.sla_violations));
  std::printf("peak observed staleness: %.1f ms\n", r.peak_staleness_ms);

  std::printf("\n-- elasticity controller --\n");
  std::printf("scale-outs %lld, scale-ins %lld, replicas peak %d final %d\n",
              static_cast<long long>(r.scale_outs),
              static_cast<long long>(r.scale_ins), r.peak_active_slaves,
              r.final_active_slaves);
  std::printf("%s", r.TimelineString().c_str());

  std::printf("\n-- workload --\n");
  std::printf("completed %lld ops (%.1f ops/s), %lld failed, mean response "
              "%.1f ms\n",
              static_cast<long long>(r.completed_ops), r.throughput_ops,
              static_cast<long long>(r.failed_ops), r.mean_response_ms);

  std::printf("\n-- cluster-wide metric spine (merged registries) --\n%s",
              r.metrics_table.c_str());
  return 0;
}
