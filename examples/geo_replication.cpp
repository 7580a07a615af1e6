// Example: geographically distributed read replicas and the staleness they
// buy you.
//
// Deploys one master (us-west-1a) with a slave in the same zone, one in a
// different zone and one across the Atlantic (eu-west-1a), then monitors the
// per-slave replication delay with the heartbeat probe while a moderate
// workload runs. Shows the paper's §IV-B conclusion: the placement adds its
// one-way latency to the delay, but workload-induced queueing dominates.

#include <cstdio>

#include "client/rw_split_proxy.h"
#include "cloud/cloud_provider.h"
#include "cloudstone/benchmark_driver.h"
#include "cloudstone/schema.h"
#include "common/stats.h"
#include "common/str_util.h"
#include "common/table_writer.h"
#include "repl/delay_monitor.h"
#include "repl/heartbeat.h"
#include "repl/master_node.h"
#include "repl/slave_node.h"
#include "cloud/instance.h"
#include "cloud/placement.h"
#include "cloudstone/operations.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/time_types.h"
#include "repl/cost_model.h"
#include "sim/simulation.h"

using namespace clouddb;

int main() {
  sim::Simulation sim;
  cloud::CloudOptions cloud_options;
  cloud::CloudProvider provider(&sim, cloud_options, /*seed=*/11);

  repl::CostModel cost_model =
      cloudstone::MakeWorkloadCostModel(cloudstone::OperationCosts{});
  cloud::Instance* master_instance = provider.Launch(
      "master", cloud::InstanceType::kSmall, cloud::MasterPlacement());
  repl::MasterNode master(&sim, &provider.network(), master_instance,
                          cost_model);

  struct SlaveSite {
    const char* label;
    cloud::Placement placement;
    std::unique_ptr<repl::SlaveNode> node;
  };
  SlaveSite sites[] = {
      {"same zone (us-west-1a)", cloud::SameZonePlacement(), nullptr},
      {"different zone (us-west-1b)", cloud::DifferentZonePlacement(), nullptr},
      {"different region (eu-west-1a)", cloud::DifferentRegionPlacement(),
       nullptr},
  };
  std::vector<repl::SlaveNode*> slaves;
  for (SlaveSite& site : sites) {
    cloud::Instance* instance = provider.Launch(
        site.label, cloud::InstanceType::kSmall, site.placement);
    site.node = std::make_unique<repl::SlaveNode>(&sim, &provider.network(),
                                                  instance, cost_model);
    master.AttachSlave(site.node.get());
    slaves.push_back(site.node.get());
  }
  cloud::Instance* app = provider.Launch("app", cloud::InstanceType::kLarge,
                                         cloud::MasterPlacement());

  // Pre-load the master (binlog suppressed: the load must not replicate),
  // then give every slave one copy of its tables.
  cloudstone::WorkloadState state;
  master.database().set_binlog_suppressed(true);
  Status loaded = cloudstone::LoadInitialData(
      [&](const std::string& sql) {
        return master.database().Execute(sql).status();
      },
      /*scale=*/150, /*seed=*/3, &state);
  master.database().set_binlog_suppressed(false);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.ToString().c_str());
    return 1;
  }
  for (repl::SlaveNode* slave : slaves) {
    slave->database().CopyTablesFrom(master.database());
  }

  // Heartbeat probe + a moderate mixed workload through the proxy.
  repl::HeartbeatPlugin heartbeat(&sim, &master, repl::HeartbeatOptions{});
  if (Status st = heartbeat.CreateTable(); !st.ok()) {
    std::printf("heartbeat table failed: %s\n", st.ToString().c_str());
    return 1;
  }
  heartbeat.Start();
  sim.RunUntil(Minutes(1));  // idle baseline
  int64_t idle_max = heartbeat.next_id() - 1;

  client::ProxyOptions proxy_options;
  client::ReadWriteSplitProxy proxy(&sim, &provider.network(), app->node_id(),
                                    &master, slaves, proxy_options);
  cloudstone::OperationGenerator generator(
      cloudstone::WorkloadMix::EightyTwenty(), cloudstone::OperationCosts{},
      &state, [&] { return app->LocalNowMicros(); });
  cloudstone::MetricsCollector metrics;
  std::vector<std::unique_ptr<cloudstone::UserEmulator>> users;
  Rng seeder(99);
  SimTime stop_at = sim.Now() + Minutes(6);
  for (int i = 0; i < 60; ++i) {
    users.push_back(std::make_unique<cloudstone::UserEmulator>(
        &sim, &proxy, &generator, &metrics, seeder.Fork(i + 1), Seconds(6)));
    users.back()->Activate(sim.Now(), stop_at);
  }
  sim.RunUntil(stop_at);
  heartbeat.Stop();
  sim.Run();  // drain

  TableWriter table({"slave placement", "idle delay (ms)",
                     "loaded delay (ms)", "relative delay (ms)"});
  for (SlaveSite& site : sites) {
    std::vector<double> idle = repl::HeartbeatDelaysMs(
        master.database(), site.node->database(), 1, idle_max);
    std::vector<double> under_load = repl::HeartbeatDelaysMs(
        master.database(), site.node->database(), idle_max + 1,
        heartbeat.next_id() - 1);
    Sample idle_sample;
    idle_sample.AddAll(idle);
    Sample loaded_sample;
    loaded_sample.AddAll(under_load);
    table.AddRow(
        {site.label, StrFormat("%.1f", idle_sample.TrimmedMean(0.05)),
         StrFormat("%.1f", loaded_sample.TrimmedMean(0.05)),
         StrFormat("%.1f", repl::AverageRelativeDelayMs(under_load, idle))});
  }
  std::printf("%s", table.ToAscii().c_str());
  std::printf(
      "\nIdle delay tracks the one-way network latency (16/21/173 ms);\n"
      "under load the extra delay is queueing on the slave CPUs, which is\n"
      "similar across placements — the paper's argument that geographic\n"
      "replication is viable if the workload is managed.\n");
  return 0;
}
