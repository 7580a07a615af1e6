#include "harness/experiment.h"

#include <memory>

#include "cloud/ntp.h"
#include "cloudstone/schema.h"
#include "repl/delay_monitor.h"
#include "client/rw_split_proxy.h"
#include "cloud/placement.h"
#include "cloudstone/benchmark_driver.h"
#include "cloudstone/operations.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/str_util.h"
#include "db/database.h"
#include "harness/deployment.h"
#include "repl/heartbeat.h"
#include "repl/replication_cluster.h"
#include "sim/simulation.h"

namespace clouddb::harness {

const char* LocationConfigToString(LocationConfig location) {
  switch (location) {
    case LocationConfig::kSameZone:
      return "same zone (us-west-1a)";
    case LocationConfig::kDifferentZone:
      return "different zone (us-west-1b)";
    case LocationConfig::kDifferentRegion:
      return "different region (eu-west-1a)";
  }
  return "?";
}

cloud::Placement SlavePlacementFor(LocationConfig location) {
  switch (location) {
    case LocationConfig::kSameZone:
      return cloud::SameZonePlacement();
    case LocationConfig::kDifferentZone:
      return cloud::DifferentZonePlacement();
    case LocationConfig::kDifferentRegion:
      return cloud::DifferentRegionPlacement();
  }
  return cloud::SameZonePlacement();
}

Result<ExperimentResult> RunExperiment(const ExperimentConfig& config) {
  Rng seeder(config.seed);
  uint64_t derived_placement_seed = seeder.NextU64();
  repl::ClusterConfig cluster_config;
  cluster_config.num_slaves = config.num_slaves;
  cluster_config.slave_placement = SlavePlacementFor(config.location);
  cluster_config.cost_model =
      cloudstone::MakeWorkloadCostModel(config.costs, config.apply_factor);
  cluster_config.synchronous_replication = config.synchronous_replication;
  // The proxy (Connector/J-style) runs inside the benchmark process.
  client::ProxyOptions proxy_options;
  proxy_options.policy = config.policy;
  proxy_options.route_cache = config.statement_cache;
  proxy_options.pool.max_active = std::max(8, config.num_users);
  Deployment d(config.cloud,
               config.placement_seed.value_or(derived_placement_seed),
               cluster_config, proxy_options);
  d.cluster.SetStatementCacheEnabled(config.statement_cache);
  d.cluster.SetRowBasedReplication(config.row_based_repl);
  d.cluster.SetBinlogBatchSize(config.binlog_batch_size);

  // NTP daemons, synchronizing every second.
  std::vector<std::unique_ptr<cloud::NtpClient>> ntp_clients;
  if (config.enable_ntp) {
    for (const auto& instance : d.provider.instances()) {
      ntp_clients.push_back(std::make_unique<cloud::NtpClient>(
          &d.sim, instance.get(), config.ntp, seeder.NextU64()));
      ntp_clients.back()->StartPeriodic();
    }
  }

  CLOUDDB_RETURN_IF_ERROR(d.Load(config.data_scale, seeder.NextU64()));

  // Heartbeat probe.
  repl::HeartbeatPlugin heartbeat(&d.sim, d.cluster.master(), config.heartbeat);
  CLOUDDB_RETURN_IF_ERROR(heartbeat.CreateTable());
  heartbeat.Start();

  // Idle window: heartbeats with no workload.
  d.sim.RunUntil(d.sim.Now() + config.idle_window);
  int64_t idle_max_id = heartbeat.next_id() - 1;

  cloudstone::OperationGenerator generator(
      config.mix, config.costs, &d.state,
      [app = d.app] { return app->LocalNowMicros(); });
  cloudstone::BenchmarkOptions bench_options = config.benchmark;
  bench_options.num_users = config.num_users;
  bench_options.seed = seeder.NextU64();
  cloudstone::BenchmarkDriver driver(&d.sim, &d.proxy, &d.cluster, &generator,
                                     bench_options);
  driver.Start();

  // Record which heartbeat ids fall inside the steady window.
  int64_t loaded_min_id = 0;
  int64_t loaded_max_id = 0;
  d.sim.ScheduleAt(driver.steady_start(),
                   [&] { loaded_min_id = heartbeat.next_id(); });
  d.sim.ScheduleAt(driver.steady_end(),
                   [&] { loaded_max_id = heartbeat.next_id() - 1; });

  d.sim.RunUntil(driver.end_time());
  heartbeat.Stop();
  for (auto& ntp : ntp_clients) ntp->Stop();
  // Drain: outstanding operations complete and relay logs apply fully.
  d.sim.Run();

  ExperimentResult result;
  result.benchmark = driver.Report();
  result.heartbeats_issued = heartbeat.next_id() - 1;
  result.binlog_events = d.cluster.master()->database().binlog().size();
  result.fully_replicated = d.cluster.FullyReplicated();
  result.converged = d.cluster.Converged();
  if (!result.fully_replicated || !result.converged) {
    return Status::Internal(StrFormat(
        "%d slaves, %d users: %s after the drain", config.num_slaves,
        config.num_users,
        !result.fully_replicated ? "a slave has not applied the whole binlog"
                                 : "the replicas' contents differ"));
  }

  db::Database& master_db = d.cluster.master()->database();
  double sum_relative = 0.0;
  for (int i = 0; i < d.cluster.num_slaves(); ++i) {
    db::Database& slave_db = d.cluster.slave(i)->database();
    std::vector<double> idle = repl::HeartbeatDelaysMs(
        master_db, slave_db, 1, idle_max_id, config.heartbeat.table);
    std::vector<double> loaded =
        repl::HeartbeatDelaysMs(master_db, slave_db, loaded_min_id,
                                loaded_max_id, config.heartbeat.table);
    Sample idle_sample;
    idle_sample.AddAll(idle);
    Sample loaded_sample;
    loaded_sample.AddAll(loaded);
    double relative = repl::AverageRelativeDelayMs(loaded, idle);
    result.idle_delay_ms.push_back(idle_sample.TrimmedMean(0.05));
    result.loaded_delay_ms.push_back(loaded_sample.TrimmedMean(0.05));
    result.relative_delay_ms.push_back(relative);
    sum_relative += relative;
  }
  if (d.cluster.num_slaves() > 0) {
    result.mean_relative_delay_ms =
        sum_relative / static_cast<double>(d.cluster.num_slaves());
  }
  return result;
}

}  // namespace clouddb::harness
