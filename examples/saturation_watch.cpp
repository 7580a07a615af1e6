// Example: *watching* the paper's §IV-A saturation transition live.
//
// The paper infers the saturation point's movement from throughput curves:
// slaves pin their CPUs first; adding slaves moves the knee until the
// master's write capacity becomes the wall. This example runs the same
// deployment with a ClusterMonitor attached and prints the per-replica CPU
// and backlog time series while the workload doubles every few minutes —
// the transition is visible directly in the utilization columns.

#include <cstdio>

#include "client/rw_split_proxy.h"
#include "cloud/cloud_provider.h"
#include "cloudstone/benchmark_driver.h"
#include "cloudstone/operations.h"
#include "cloudstone/schema.h"
#include "repl/cluster_monitor.h"
#include "repl/replication_cluster.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/time_types.h"
#include "harness/deployment.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"

using namespace clouddb;

int main() {
  cloud::CloudOptions cloud_options;
  cloud_options.cpu_speed_cov = 0.0;  // clean curves for the demo
  repl::ClusterConfig cluster_config;
  cluster_config.num_slaves = 2;
  cluster_config.cost_model =
      cloudstone::MakeWorkloadCostModel(cloudstone::OperationCosts{});
  harness::Deployment d(cloud_options, /*cloud_seed=*/9, cluster_config,
                        client::ProxyOptions{});
  Status loaded = d.Load(/*scale=*/120, /*seed=*/5);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.ToString().c_str());
    return 1;
  }

  std::vector<repl::SlaveNode*> slaves = {d.cluster.slave(0),
                                          d.cluster.slave(1)};
  repl::ClusterMonitor monitor(&d.sim, d.cluster.master(), slaves, Minutes(1));
  monitor.Start();

  cloudstone::OperationGenerator generator(
      cloudstone::WorkloadMix::FiftyFifty(), cloudstone::OperationCosts{},
      &d.state, [&] { return d.app->LocalNowMicros(); });
  cloudstone::MetricsCollector metrics;
  std::vector<std::unique_ptr<cloudstone::UserEmulator>> users;
  Rng seeder(3);
  SimTime horizon = Minutes(16);
  auto add_users = [&](int n) {
    for (int i = 0; i < n; ++i) {
      users.push_back(std::make_unique<cloudstone::UserEmulator>(
          &d.sim, &d.proxy, &generator, &metrics,
          seeder.Fork(users.size() + 1), Seconds(9)));
      users.back()->Activate(d.sim.Now(), horizon);
    }
  };
  // Workload steps: 50 -> 100 -> 200 users.
  add_users(50);
  d.sim.ScheduleAt(Minutes(5), [&] { add_users(50); });
  d.sim.ScheduleAt(Minutes(10), [&] { add_users(100); });
  d.sim.RunUntil(horizon);
  monitor.Stop();
  d.sim.Run();

  std::printf("Per-minute cluster health (50 users, +50 at 5min, +100 at "
              "10min):\n\n%s\n",
              monitor.ToTable().ToAscii().c_str());
  std::printf("mean master CPU: %.0f%%   max slave lag: %lld events\n",
              100.0 * monitor.MeanMasterCpu(),
              static_cast<long long>(monitor.MaxLagEvents()));
  std::printf("slave 1 saturated (>90%% CPU) in %.0f%% of samples\n",
              100.0 * monitor.SlaveSaturatedFraction(0, 0.9));
  std::printf(
      "\nReading the table: the slave CPU columns pin at 1.00 first (reads\n"
      "plus writeset applies) while the master still has headroom; by the\n"
      "final workload step the master hits its wall too and the relay\n"
      "backlogs grow without bound. That is the paper's §IV-A saturation\n"
      "story — and its scaling limit — observed directly.\n");
  return 0;
}
