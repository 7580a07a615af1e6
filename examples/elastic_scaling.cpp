// Example: the application-managed elasticity the paper motivates — the
// application itself decides when to attach another read replica.
//
// A workload ramps up in steps; a naive autoscaler watches the slaves'
// CPU utilization over a window and, when the average exceeds a threshold,
// launches a new slave, copies the master's tables onto it (as an operator
// would restore a backup), and attaches it to the master. Shows throughput
// recovering after each scale-out and where scaling stops helping — the
// master's write capacity, the paper's central scaling limit.

#include <cstdio>
#include <memory>
#include <vector>

#include "client/rw_split_proxy.h"
#include "cloud/cloud_provider.h"
#include "cloudstone/benchmark_driver.h"
#include "cloudstone/schema.h"
#include "common/str_util.h"
#include "repl/master_node.h"
#include "repl/slave_node.h"
#include "cloud/instance.h"
#include "cloud/placement.h"
#include "cloudstone/operations.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/time_types.h"
#include "db/database.h"
#include "repl/cost_model.h"
#include "sim/simulation.h"

using namespace clouddb;

int main() {
  sim::Simulation sim;
  cloud::CloudOptions cloud_options;
  cloud_options.cpu_speed_cov = 0.0;  // keep the demo deterministic-looking
  cloud::CloudProvider provider(&sim, cloud_options, 5);

  repl::CostModel cost_model =
      cloudstone::MakeWorkloadCostModel(cloudstone::OperationCosts{});
  cloud::Instance* master_instance = provider.Launch(
      "master", cloud::InstanceType::kSmall, cloud::MasterPlacement());
  repl::MasterNode master(&sim, &provider.network(), master_instance,
                          cost_model);
  cloud::Instance* app = provider.Launch("app", cloud::InstanceType::kLarge,
                                         cloud::MasterPlacement());

  // Start with a single slave.
  std::vector<std::unique_ptr<repl::SlaveNode>> slaves;
  auto launch_slave = [&]() -> repl::SlaveNode* {
    cloud::Instance* instance =
        provider.Launch(StrFormat("slave-%zu", slaves.size() + 1),
                        cloud::InstanceType::kSmall,
                        cloud::SameZonePlacement());
    slaves.push_back(std::make_unique<repl::SlaveNode>(
        &sim, &provider.network(), instance, cost_model));
    return slaves.back().get();
  };

  cloudstone::WorkloadState state;
  Status loaded = cloudstone::LoadInitialData(
      [&](const std::string& sql) -> Status {
        master.database().set_binlog_suppressed(true);
        auto r = master.database().Execute(sql);
        master.database().set_binlog_suppressed(false);
        return r.ok() ? Status::Ok() : r.status();
      },
      /*scale=*/100, /*seed=*/3, &state);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.ToString().c_str());
    return 1;
  }
  {
    repl::SlaveNode* first = launch_slave();
    first->database().CopyTablesFrom(master.database());
    master.AttachSlave(first);
  }

  // The application-managed proxy: new replicas are added to the read
  // rotation in place (AddSlave) while users keep their sessions.
  auto proxy = std::make_unique<client::ReadWriteSplitProxy>(
      &sim, &provider.network(), app->node_id(), &master,
      std::vector<repl::SlaveNode*>{slaves.front().get()},
      client::ProxyOptions{});

  // Closed-loop users arrive in waves.
  cloudstone::OperationGenerator generator(
      cloudstone::WorkloadMix::EightyTwenty(), cloudstone::OperationCosts{},
      &state, [&] { return app->LocalNowMicros(); });
  cloudstone::MetricsCollector metrics;
  std::vector<std::unique_ptr<cloudstone::UserEmulator>> users;
  Rng seeder(1);
  SimTime horizon = Minutes(40);
  auto add_users = [&](int n) {
    for (int i = 0; i < n; ++i) {
      users.push_back(std::make_unique<cloudstone::UserEmulator>(
          &sim, proxy.get(), &generator, &metrics,
          seeder.Fork(users.size() + 1), Seconds(6)));
      users.back()->Activate(sim.Now(), horizon);
    }
  };
  add_users(60);

  std::printf(
      "t(min) users slaves  tput(ops/s)  worst-slave-cpu  master-cpu  action\n");
  auto window_stats = [&](SimDuration window) {
    double tput = static_cast<double>(
                      metrics.CountInWindow(sim.Now() - window, sim.Now())) /
                  ToSeconds(window);
    return tput;
  };
  std::vector<int64_t> prev_busy(16, 0);
  int64_t prev_master_busy = 0;

  for (int minute = 2; minute <= 40; minute += 2) {
    sim.RunUntil(Minutes(minute));
    // Utilization over the last 2 minutes.
    double worst = 0.0;
    for (size_t i = 0; i < slaves.size(); ++i) {
      int64_t busy = slaves[i]->instance().cpu().CumulativeBusyMicros();
      double util = static_cast<double>(busy - prev_busy[i]) /
                    static_cast<double>(Minutes(2));
      prev_busy[i] = busy;
      worst = std::max(worst, util);
    }
    int64_t master_busy = master.instance().cpu().CumulativeBusyMicros();
    double master_util = static_cast<double>(master_busy - prev_master_busy) /
                         static_cast<double>(Minutes(2));
    prev_master_busy = master_busy;

    std::string action = "-";
    if (minute % 8 == 0 && minute <= 24) {
      add_users(40);
      action = "+40 users";
    } else if (worst > 0.9 && slaves.size() < 8 && master_util < 0.95) {
      repl::SlaveNode* fresh = launch_slave();
      fresh->database().CopyTablesFrom(master.database());
      master.AttachSlave(fresh);
      proxy->AddSlave(fresh);
      prev_busy.resize(slaves.size() + 8, 0);
      action = StrFormat("scale out -> %zu slaves", slaves.size());
    } else if (master_util >= 0.95) {
      action = "master saturated (scaling is futile)";
    }
    std::printf("%5d %5zu %6zu %12.1f %15.0f%% %10.0f%%  %s\n", minute,
                users.size(), slaves.size(), window_stats(Minutes(2)),
                worst * 100.0, master_util * 100.0, action.c_str());
  }
  sim.Run();
  std::printf("\nFinal: %zu slaves, all converged: %s\n", slaves.size(),
              [&] {
                for (auto& s : slaves) {
                  if (!db::Database::ContentsEqual(master.database(),
                                                   s->database())) {
                    return false;
                  }
                }
                return true;
              }()
                  ? "yes"
                  : "no");
  return 0;
}
