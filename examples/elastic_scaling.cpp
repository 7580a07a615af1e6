// Example: the application-managed elasticity the paper motivates — the
// application itself decides when to attach another read replica.
//
// A workload ramps up in steps; a naive autoscaler watches the slaves'
// CPU utilization over a window and, when the average exceeds a threshold,
// adds a slave through ReplicationCluster::AddSlave (a copy of the master's
// tables attached at the master's binlog position) and puts it in the
// proxy's read rotation. Shows throughput recovering after each scale-out
// and where scaling stops helping — the master's write capacity, the paper's
// central scaling limit.

#include <cstdio>
#include <memory>
#include <vector>

#include "client/rw_split_proxy.h"
#include "cloud/cloud_provider.h"
#include "cloudstone/benchmark_driver.h"
#include "common/str_util.h"
#include "harness/deployment.h"
#include "repl/replication_cluster.h"
#include "repl/slave_node.h"
#include "cloudstone/operations.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/time_types.h"

using namespace clouddb;

int main() {
  constexpr int kMaxSlaves = 8;
  cloud::CloudOptions cloud_options;
  cloud_options.cpu_speed_cov = 0.0;  // keep the demo deterministic-looking
  // Start with a single slave.
  repl::ClusterConfig cluster_config;
  cluster_config.cost_model =
      cloudstone::MakeWorkloadCostModel(cloudstone::OperationCosts{});
  harness::Deployment d(cloud_options, /*cloud_seed=*/5, cluster_config,
                        client::ProxyOptions{});
  Status loaded = d.Load(/*scale=*/100, /*seed=*/3);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.ToString().c_str());
    return 1;
  }

  // Closed-loop users arrive in waves.
  cloudstone::OperationGenerator generator(
      cloudstone::WorkloadMix::EightyTwenty(), cloudstone::OperationCosts{},
      &d.state, [&] { return d.app->LocalNowMicros(); });
  cloudstone::MetricsCollector metrics;
  std::vector<std::unique_ptr<cloudstone::UserEmulator>> users;
  Rng seeder(1);
  SimTime horizon = Minutes(40);
  auto add_users = [&](int n) {
    for (int i = 0; i < n; ++i) {
      users.push_back(std::make_unique<cloudstone::UserEmulator>(
          &d.sim, &d.proxy, &generator, &metrics,
          seeder.Fork(users.size() + 1), Seconds(6)));
      users.back()->Activate(d.sim.Now(), horizon);
    }
  };
  add_users(60);

  std::printf(
      "t(min) users slaves  tput(ops/s)  worst-slave-cpu  master-cpu  action\n");
  auto window_stats = [&](SimDuration window) {
    double tput = static_cast<double>(metrics.CountInWindow(
                      d.sim.Now() - window, d.sim.Now())) /
                  ToSeconds(window);
    return tput;
  };
  std::vector<int64_t> prev_busy(kMaxSlaves, 0);
  int64_t prev_master_busy = 0;

  for (int minute = 2; minute <= 40; minute += 2) {
    d.sim.RunUntil(Minutes(minute));
    // Utilization over the last 2 minutes.
    double worst = 0.0;
    for (int i = 0; i < d.cluster.num_slaves(); ++i) {
      int64_t busy =
          d.cluster.slave(i)->instance().cpu().CumulativeBusyMicros();
      double util = static_cast<double>(busy - prev_busy[i]) /
                    static_cast<double>(Minutes(2));
      prev_busy[i] = busy;
      worst = std::max(worst, util);
    }
    int64_t master_busy =
        d.cluster.master()->instance().cpu().CumulativeBusyMicros();
    double master_util = static_cast<double>(master_busy - prev_master_busy) /
                         static_cast<double>(Minutes(2));
    prev_master_busy = master_busy;

    std::string action = "-";
    if (minute % 8 == 0 && minute <= 24) {
      add_users(40);
      action = "+40 users";
    } else if (worst > 0.9 && d.cluster.num_slaves() < kMaxSlaves &&
               master_util < 0.95) {
      // The application scales its own tier: a new replica, then its place
      // in the read rotation, while users keep their sessions.
      Result<int> added = d.cluster.AddSlave();
      if (!added.ok()) {
        std::printf("scale-out failed: %s\n",
                    added.status().ToString().c_str());
        return 1;
      }
      d.proxy.AddSlave(d.cluster.slave(*added));
      action = StrFormat("scale out -> %d slaves", d.cluster.num_slaves());
    } else if (master_util >= 0.95) {
      action = "master saturated (scaling is futile)";
    }
    std::printf("%5d %5zu %6d %12.1f %15.0f%% %10.0f%%  %s\n", minute,
                users.size(), d.cluster.num_slaves(), window_stats(Minutes(2)),
                worst * 100.0, master_util * 100.0, action.c_str());
  }
  d.sim.Run();
  bool converged = d.cluster.Converged();
  std::printf("\nFinal: %d slaves, all converged: %s\n", d.cluster.num_slaves(),
              converged ? "yes" : "no");
  return converged ? 0 : 1;
}
