#include "layered.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "client/rw_split_proxy.h"
#include "cloud/cloud_provider.h"
#include "cloud/instance.h"
#include "cloud/ntp.h"
#include "cloudstone/benchmark_driver.h"
#include "cloudstone/operations.h"
#include "cloudstone/schema.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/time_types.h"
#include "control/elasticity_controller.h"
#include "control/freshness_tracker.h"
#include "db/statement_cache.h"
#include "metrics/metric_registry.h"
#include "repl/delay_monitor.h"
#include "repl/heartbeat.h"
#include "repl/replication_cluster.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"

namespace perfbench {

using namespace clouddb;

namespace {

/// Worst slave relay backlog (events), sampled once per simulated second.
/// Read-only, so it leaves every simulated result unchanged; its ticks are
/// subtracted from the event count.
class BacklogSampler {
 public:
  void Start(sim::Simulation* sim, repl::ReplicationCluster* cluster) {
    timer_.Start(sim, Seconds(1), [this, cluster] {
      ++ticks_;
      for (int i = 0; i < cluster->num_slaves(); ++i) {
        peak_ = std::max(peak_, static_cast<int64_t>(
                                    cluster->slave(i)->relay_backlog()));
      }
    });
  }
  void Stop() { timer_.Stop(); }
  int64_t ticks() const { return ticks_; }
  int64_t peak() const { return peak_; }

 private:
  sim::PeriodicTimer timer_;
  int64_t ticks_ = 0;
  int64_t peak_ = 0;
};

void CountNode(repl::DbNode& node, WorkCounters* c) {
  (*c)["db.queries"] += node.queries_completed() + node.queries_failed();
  const db::StatementCacheStats& s = node.database().statement_cache().stats();
  (*c)["db.statement_cache.hits"] += s.hits;
  (*c)["db.statement_cache.misses"] += s.misses;
}

void CountCluster(repl::ReplicationCluster& cluster, WorkCounters* c) {
  repl::MasterNode* master = cluster.master();
  (*c)["repl.binlog_events"] += master->binlog_size();
  (*c)["repl.binlog.batches"] += master->batches_shipped();
  CountNode(*master, c);
  for (int i = 0; i < cluster.num_slaves(); ++i) {
    repl::SlaveNode* slave = cluster.slave(i);
    CountNode(*slave, c);
    (*c)["repl.events_applied"] += slave->events_applied();
    (*c)["repl.apply.writeset"] += slave->writeset_applies();
    (*c)["repl.apply.fallback"] += slave->fallback_applies();
  }
}

void CountProxy(const client::ReadWriteSplitProxy& proxy, WorkCounters* c) {
  const metrics::MetricRegistry& pm = proxy.metrics();
  auto counter = [&](const char* name) {
    return pm.FindCounter(name)->value();
  };
  (*c)["client.reads_routed"] += counter("proxy.reads.total");
  (*c)["client.writes_routed"] += counter("proxy.writes.total");
  (*c)["client.reads_to_replica"] += proxy.total_reads_routed();
  (*c)["client.master_fallbacks"] += counter("proxy.reads.master_fallback");
  (*c)["client.read_retries"] += counter("proxy.reads.retries");
  (*c)["control.sla_violations"] += counter("proxy.sla.violations");
  (*c)["client.route_cache.hits"] += proxy.route_cache().stats().hits;
  (*c)["client.route_cache.misses"] += proxy.route_cache().stats().misses;
}

void CountKernel(const sim::Simulation& sim, net::Network& network,
                 int64_t own_events, LayeredOutcome* out) {
  WorkCounters& c = out->counters;
  c["sim.events"] += sim.events_executed() - own_events;
  c["net.messages"] += network.messages_sent();
  c["net.bytes"] += network.bytes_sent();
  c["net.dropped"] += network.messages_dropped();
  out->sim_seconds += ToSeconds(sim.Now());
}

void CountOps(const cloudstone::MetricsCollector& collector,
              WorkCounters* c) {
  (*c)["cloudstone.ops_attempted"] +=
      static_cast<int64_t>(collector.records().size());
  (*c)["cloudstone.ops_failed"] += collector.failures();
}

void PeakBacklog(const BacklogSampler& backlog, WorkCounters* c) {
  int64_t& peak = (*c)["repl.relay_backlog_peak"];
  peak = std::max(peak, backlog.peak());
}

/// Initial load through the harness's loader, one ExecuteEverywhereDirect
/// per statement (each folded into the load span when traced).
Status Load(repl::ReplicationCluster* cluster, int64_t scale, uint64_t seed,
            cloudstone::WorkloadState* state, Tracer* t, WorkCounters* c) {
  ScopedSpan span(t, "cloudstone.load");
  int64_t& statements = (*c)["cloudstone.load_statements"];
  return cloudstone::LoadInitialData(
      [&](const std::string& sql) {
        ++statements;
        return Folding(t, "repl.load_execute", [&] {
          return cluster->ExecuteEverywhereDirect(sql);
        });
      },
      scale, seed, state);
}

/// harness::RunExperiment, call for call. The components live in one heap
/// object in the harness's declaration order, so they are destroyed in the
/// same (reverse) order — inside the teardown span.
Result<harness::ExperimentResult> LayeredExperiment(
    const harness::ExperimentConfig& config, Tracer* t, LayeredOutcome* out) {
  struct Deployment {
    sim::Simulation sim;
    std::unique_ptr<cloud::CloudProvider> provider;
    std::unique_ptr<repl::ReplicationCluster> cluster;
    std::vector<std::unique_ptr<cloud::NtpClient>> ntp_clients;
    cloudstone::WorkloadState state;
    std::unique_ptr<repl::HeartbeatPlugin> heartbeat;
    std::unique_ptr<client::ReadWriteSplitProxy> proxy;
    std::unique_ptr<cloudstone::OperationGenerator> generator;
    std::unique_ptr<cloudstone::BenchmarkDriver> driver;
    BacklogSampler backlog;
  };
  Rng seeder(config.seed);
  std::unique_ptr<Deployment> d;
  cloud::Instance* bench_instance = nullptr;
  {
    ScopedSpan span(t, "harness.deploy");
    d = std::make_unique<Deployment>();
    uint64_t derived_placement_seed = seeder.NextU64();
    d->provider = std::make_unique<cloud::CloudProvider>(
        &d->sim, config.cloud,
        config.placement_seed.value_or(derived_placement_seed));
    repl::ClusterConfig cluster_config;
    cluster_config.num_slaves = config.num_slaves;
    cluster_config.slave_placement =
        harness::SlavePlacementFor(config.location);
    cluster_config.cost_model =
        cloudstone::MakeWorkloadCostModel(config.costs, config.apply_factor);
    cluster_config.synchronous_replication = config.synchronous_replication;
    d->cluster = std::make_unique<repl::ReplicationCluster>(d->provider.get(),
                                                            cluster_config);
    d->cluster->SetStatementCacheEnabled(config.statement_cache);
    d->cluster->SetVectorizedExecEnabled(config.vectorized_exec);
    d->cluster->SetRowBasedReplication(config.row_based_repl);
    d->cluster->SetBinlogBatchSize(config.binlog_batch_size);
    bench_instance =
        d->provider->Launch("cloudstone", cloud::InstanceType::kLarge,
                            cluster_config.master_placement);
    if (config.enable_ntp) {
      for (const auto& instance : d->provider->instances()) {
        d->ntp_clients.push_back(std::make_unique<cloud::NtpClient>(
            &d->sim, instance.get(), config.ntp, seeder.NextU64()));
        d->ntp_clients.back()->StartPeriodic();
      }
    }
  }

  uint64_t load_seed = seeder.NextU64();
  CLOUDDB_RETURN_IF_ERROR(Load(d->cluster.get(), config.data_scale, load_seed,
                               &d->state, t, &out->counters));

  {
    ScopedSpan span(t, "repl.heartbeat_table");
    d->heartbeat = std::make_unique<repl::HeartbeatPlugin>(
        &d->sim, d->cluster->master(), config.heartbeat);
    CLOUDDB_RETURN_IF_ERROR(d->heartbeat->CreateTable());
    d->heartbeat->Start();
  }
  d->backlog.Start(&d->sim, d->cluster.get());

  {
    ScopedSpan span(t, "sim.idle");
    d->sim.RunUntil(d->sim.Now() + config.idle_window);
  }
  int64_t idle_max_id = d->heartbeat->next_id() - 1;

  int64_t loaded_min_id = 0;
  int64_t loaded_max_id = 0;
  {
    ScopedSpan span(t, "harness.wire");
    client::ProxyOptions proxy_options;
    proxy_options.policy = config.policy;
    proxy_options.route_cache = config.statement_cache;
    proxy_options.pool.max_active = std::max(8, config.num_users);
    std::vector<repl::SlaveNode*> slaves;
    for (int i = 0; i < d->cluster->num_slaves(); ++i) {
      slaves.push_back(d->cluster->slave(i));
    }
    d->proxy = std::make_unique<client::ReadWriteSplitProxy>(
        &d->sim, &d->provider->network(), bench_instance->node_id(),
        d->cluster->master(), slaves, proxy_options);
    d->generator = std::make_unique<cloudstone::OperationGenerator>(
        config.mix, config.costs, &d->state,
        [bench_instance] { return bench_instance->LocalNowMicros(); });
    cloudstone::BenchmarkOptions bench_options = config.benchmark;
    bench_options.num_users = config.num_users;
    bench_options.seed = seeder.NextU64();
    d->driver = std::make_unique<cloudstone::BenchmarkDriver>(
        &d->sim, d->proxy.get(), d->cluster.get(), d->generator.get(),
        bench_options);
    d->driver->Start();
    d->sim.ScheduleAt(d->driver->steady_start(),
                      [&] { loaded_min_id = d->heartbeat->next_id(); });
    d->sim.ScheduleAt(d->driver->steady_end(),
                      [&] { loaded_max_id = d->heartbeat->next_id() - 1; });
  }

  {
    ScopedSpan span(t, "sim.traffic");
    d->sim.RunUntil(d->driver->end_time());
  }
  {
    ScopedSpan span(t, "sim.drain");
    d->heartbeat->Stop();
    for (auto& ntp : d->ntp_clients) ntp->Stop();
    d->backlog.Stop();
    d->sim.Run();
  }

  harness::ExperimentResult result;
  {
    ScopedSpan span(t, "cloudstone.report");
    result.benchmark = d->driver->Report();
    result.heartbeats_issued = d->heartbeat->next_id() - 1;
    result.binlog_events = d->cluster->master()->database().binlog().size();
  }
  {
    ScopedSpan span(t, "repl.fully_replicated");
    result.fully_replicated = d->cluster->FullyReplicated();
  }
  {
    ScopedSpan span(t, "repl.converged");
    result.converged = d->cluster->Converged();
  }
  {
    ScopedSpan span(t, "cloudstone.report");
    db::Database& master_db = d->cluster->master()->database();
    double sum_relative = 0.0;
    for (int i = 0; i < d->cluster->num_slaves(); ++i) {
      db::Database& slave_db = d->cluster->slave(i)->database();
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
    if (d->cluster->num_slaves() > 0) {
      result.mean_relative_delay_ms =
          sum_relative / static_cast<double>(d->cluster->num_slaves());
    }
  }

  // Work counts (benchmark bookkeeping, outside every span).
  CountKernel(d->sim, d->provider->network(), d->backlog.ticks(), out);
  CountCluster(*d->cluster, &out->counters);
  CountProxy(*d->proxy, &out->counters);
  CountOps(d->driver->metrics(), &out->counters);
  PeakBacklog(d->backlog, &out->counters);
  out->counters["repl.heartbeats"] += result.heartbeats_issued;
  out->cpu_util_master_sum += result.benchmark.master_cpu_utilization;
  const std::vector<double>& slave_util =
      result.benchmark.slave_cpu_utilization;
  if (!slave_util.empty()) {
    double sum = 0.0;
    for (double u : slave_util) sum += u;
    out->cpu_util_slave_mean_sum += sum / static_cast<double>(slave_util.size());
  }
  out->all_fully_replicated &= result.fully_replicated;
  out->all_converged &= result.converged;

  {
    ScopedSpan span(t, "harness.teardown");
    d.reset();
  }
  return result;
}

/// harness::RunControlExperiment, call for call, except that the tracker's
/// and controller's own timers are replaced by benchmark timers with the same
/// periods, started at the same points, that time each Poll()/Tick().
Result<harness::ControlExperimentResult> LayeredControl(
    const harness::ControlExperimentConfig& config, Tracer* t,
    LayeredOutcome* out) {
  struct Deployment {
    sim::Simulation sim;
    std::unique_ptr<cloud::CloudProvider> provider;
    std::unique_ptr<repl::ReplicationCluster> cluster;
    cloudstone::WorkloadState state;
    std::unique_ptr<repl::HeartbeatPlugin> heartbeat;
    std::unique_ptr<client::ReadWriteSplitProxy> proxy;
    std::unique_ptr<control::FreshnessTracker> tracker;
    sim::PeriodicTimer poll_timer;
    std::unique_ptr<control::ElasticityController> controller;
    sim::PeriodicTimer tick_timer;
    sim::PeriodicTimer staleness_watermark;
    std::unique_ptr<cloudstone::OperationGenerator> generator;
    cloudstone::MetricsCollector collector;
    std::vector<std::unique_ptr<cloudstone::UserEmulator>> users;
    BacklogSampler backlog;
  };
  Rng seeder(config.seed);
  std::unique_ptr<Deployment> d;
  cloud::Instance* bench_instance = nullptr;
  repl::ClusterConfig cluster_config;
  {
    ScopedSpan span(t, "harness.deploy");
    d = std::make_unique<Deployment>();
    uint64_t derived_placement_seed = seeder.NextU64();
    d->provider = std::make_unique<cloud::CloudProvider>(
        &d->sim, config.cloud,
        config.placement_seed.value_or(derived_placement_seed));
    cluster_config.num_slaves = config.initial_slaves;
    cluster_config.cost_model =
        cloudstone::MakeWorkloadCostModel(config.costs, config.apply_factor);
    d->cluster = std::make_unique<repl::ReplicationCluster>(d->provider.get(),
                                                            cluster_config);
    d->cluster->SetStatementCacheEnabled(config.statement_cache);
    bench_instance =
        d->provider->Launch("cloudstone", cloud::InstanceType::kLarge,
                            cluster_config.master_placement);
  }

  uint64_t load_seed = seeder.NextU64();
  CLOUDDB_RETURN_IF_ERROR(Load(d->cluster.get(), config.data_scale, load_seed,
                               &d->state, t, &out->counters));

  {
    ScopedSpan span(t, "repl.heartbeat_table");
    d->heartbeat = std::make_unique<repl::HeartbeatPlugin>(
        &d->sim, d->cluster->master(), config.heartbeat);
    CLOUDDB_RETURN_IF_ERROR(d->heartbeat->CreateTable());
    d->heartbeat->Start();
  }

  SimTime measure_start = 0;
  SimTime measure_end = 0;
  double peak_staleness_ms = 0.0;
  // Benchmark readouts at the measured window's edges: CPU busy time and the
  // heartbeat ids that bracket the window.
  std::vector<int64_t> busy_at_start;
  std::vector<int64_t> busy_at_end;
  int64_t loaded_min_id = 0;
  int64_t loaded_max_id = 0;
  auto snapshot_busy = [&](std::vector<int64_t>* busy) {
    busy->clear();
    busy->push_back(
        d->cluster->master()->instance().cpu().CumulativeBusyMicros());
    for (int i = 0; i < d->cluster->num_slaves(); ++i) {
      busy->push_back(
          d->cluster->slave(i)->instance().cpu().CumulativeBusyMicros());
    }
  };
  {
    ScopedSpan span(t, "harness.wire");
    client::ProxyOptions proxy_options;
    proxy_options.policy = client::BalancePolicy::kFreshnessAware;
    proxy_options.route_cache = config.statement_cache;
    proxy_options.pool.max_active =
        std::max(8, config.base_users + config.surge_users);
    std::vector<repl::SlaveNode*> slaves;
    for (int i = 0; i < d->cluster->num_slaves(); ++i) {
      slaves.push_back(d->cluster->slave(i));
    }
    d->proxy = std::make_unique<client::ReadWriteSplitProxy>(
        &d->sim, &d->provider->network(), bench_instance->node_id(),
        d->cluster->master(), slaves, proxy_options);

    d->tracker = std::make_unique<control::FreshnessTracker>(
        &d->sim, d->cluster.get(), config.tracker);
    d->proxy->SetStalenessProbe(d->tracker->Probe());
    d->poll_timer.Start(&d->sim, config.tracker.poll_period, [&] {
      ScopedSpan poll(t, "control.poll");
      d->tracker->Poll();
    });
    d->controller = std::make_unique<control::ElasticityController>(
        &d->sim, d->cluster.get(), d->proxy.get(), d->tracker->Probe(),
        config.controller);
    if (config.enable_controller) {
      d->tick_timer.Start(&d->sim, config.controller.tick, [&] {
        ScopedSpan tick(t, "control.tick");
        d->controller->Tick();
      });
    }
    d->staleness_watermark.Start(&d->sim, config.tracker.poll_period, [&] {
      for (int i = 0; i < d->cluster->num_slaves(); ++i) {
        peak_staleness_ms =
            std::max(peak_staleness_ms, d->tracker->StalenessMs(i));
      }
    });

    d->generator = std::make_unique<cloudstone::OperationGenerator>(
        config.mix, config.costs, &d->state,
        [bench_instance] { return bench_instance->LocalNowMicros(); });
    client::ReadOptions read_options;
    read_options.max_staleness = config.staleness_bound;

    measure_start = d->sim.Now() + config.warmup;
    measure_end = measure_start + config.measure;
    SimTime surge_start = measure_start + config.surge_start;
    SimTime surge_end = surge_start + config.surge_duration;
    for (int u = 0; u < config.base_users + config.surge_users; ++u) {
      d->users.push_back(std::make_unique<cloudstone::UserEmulator>(
          &d->sim, d->proxy.get(), d->generator.get(), &d->collector,
          Rng(seeder.NextU64()), config.think_time_mean));
      d->users.back()->set_read_options(read_options);
      bool surge = u >= config.base_users;
      d->users.back()->Activate(surge ? surge_start : measure_start,
                                surge ? surge_end : measure_end);
    }
    d->sim.ScheduleAt(measure_start, [&] {
      snapshot_busy(&busy_at_start);
      loaded_min_id = d->heartbeat->next_id();
    });
    d->sim.ScheduleAt(measure_end, [&] {
      snapshot_busy(&busy_at_end);
      loaded_max_id = d->heartbeat->next_id() - 1;
    });
  }
  d->backlog.Start(&d->sim, d->cluster.get());
  const int64_t own_events = 2;  // the two CPU snapshots

  {
    ScopedSpan span(t, "sim.traffic");
    d->sim.RunUntil(measure_end);
  }
  {
    ScopedSpan span(t, "sim.drain");
    d->heartbeat->Stop();
    d->poll_timer.Stop();
    d->tick_timer.Stop();
    d->staleness_watermark.Stop();
    d->backlog.Stop();
    d->sim.Run();
  }

  harness::ControlExperimentResult result;
  {
    ScopedSpan span(t, "cloudstone.report");
    const metrics::MetricRegistry& pm = d->proxy->metrics();
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
          100.0 *
          static_cast<double>(result.bounded_reads - result.sla_violations) /
          static_cast<double>(result.bounded_reads);
      result.master_offload_pct =
          100.0 * static_cast<double>(result.bounded_to_slave) /
          static_cast<double>(result.bounded_reads);
    }
    control::ElasticityController& controller = *d->controller;
    result.scale_outs =
        controller.metrics().FindCounter("control.scale_out.total")->value();
    result.scale_ins =
        controller.metrics().FindCounter("control.scale_in.total")->value();
    result.final_active_slaves = d->cluster->num_active_slaves();
    result.scaling_events = controller.events();
    int active = config.initial_slaves;
    result.peak_active_slaves = active;
    for (const control::ScalingEvent& event : result.scaling_events) {
      active = event.num_active;
      result.peak_active_slaves = std::max(result.peak_active_slaves, active);
    }
    result.peak_staleness_ms = peak_staleness_ms;
    result.completed_ops =
        d->collector.CountInWindow(measure_start, measure_end);
    result.failed_ops = d->collector.failures();
    result.throughput_ops = static_cast<double>(result.completed_ops) /
                            (static_cast<double>(config.measure) / 1e6);
    Sample responses = d->collector.ResponseTimesMs(measure_start, measure_end);
    result.mean_response_ms = responses.Mean();
    out->control_p95_response_ms.push_back(responses.Percentile(0.95));

    metrics::MetricRegistry total("cluster");
    total.MergeFrom(d->cluster->master()->metrics());
    for (int i = 0; i < d->cluster->num_slaves(); ++i) {
      total.MergeFrom(d->cluster->slave(i)->metrics());
    }
    total.MergeFrom(d->proxy->metrics());
    total.MergeFrom(d->tracker->metrics());
    total.MergeFrom(controller.metrics());
    result.metrics_table = total.ToString();
  }
  {
    // Not part of the harness call: the benchmark's own end-of-run checks
    // and the first slave's heartbeat delay.
    ScopedSpan span(t, "bench.readout");
    out->all_fully_replicated &= d->cluster->FullyReplicated();
    out->all_converged &= d->cluster->Converged();
    db::Database& master_db = d->cluster->master()->database();
    db::Database& slave_db = d->cluster->slave(0)->database();
    const std::string& table = config.heartbeat.table;
    out->control_relative_delay_ms.push_back(repl::AverageRelativeDelayMs(
        repl::HeartbeatDelaysMs(master_db, slave_db, loaded_min_id,
                                loaded_max_id, table),
        repl::HeartbeatDelaysMs(master_db, slave_db, 1, loaded_min_id - 1,
                                table)));
  }

  CountKernel(d->sim, d->provider->network(),
              d->backlog.ticks() + own_events, out);
  CountCluster(*d->cluster, &out->counters);
  CountProxy(*d->proxy, &out->counters);
  CountOps(d->collector, &out->counters);
  PeakBacklog(d->backlog, &out->counters);
  out->counters["repl.heartbeats"] += d->heartbeat->next_id() - 1;
  out->counters["control.polls"] += d->tracker->polls();
  out->counters["control.ticks"] += d->controller->ticks();
  out->counters["control.scale_outs"] += result.scale_outs;
  out->counters["control.scale_ins"] += result.scale_ins;
  int64_t issued = 0;
  for (const auto& user : d->users) issued += user->ops_issued();
  out->counters["cloudstone.ops_issued"] += issued;
  if (busy_at_start.size() > 0 && busy_at_end.size() >= busy_at_start.size() &&
      config.measure > 0) {
    double window_us = static_cast<double>(config.measure);
    auto util = [&](size_t i, int cores) {
      int64_t start = i < busy_at_start.size() ? busy_at_start[i] : 0;
      return static_cast<double>(busy_at_end[i] - start) / (window_us * cores);
    };
    out->cpu_util_master_sum +=
        util(0, d->cluster->master()->instance().cpu().num_cores());
    double sum = 0.0;
    size_t slaves = busy_at_end.size() - 1;
    for (size_t i = 1; i < busy_at_end.size(); ++i) {
      sum += util(i, d->cluster->slave(static_cast<int>(i) - 1)
                         ->instance()
                         .cpu()
                         .num_cores());
    }
    if (slaves > 0) out->cpu_util_slave_mean_sum += sum / slaves;
  }

  {
    ScopedSpan span(t, "harness.teardown");
    d.reset();
  }
  return result;
}

}  // namespace

Result<LayeredOutcome> RunLayered(const Workload& workload, Tracer* tracer) {
  LayeredOutcome out;
  switch (workload.entry) {
    case Entry::kSweep: {
      // harness::RunSweep's cell plan: seeds from the grid coordinates, the
      // cloud pinned for the whole sweep.
      const harness::SweepConfig& sweep = workload.sweep;
      for (int slaves : sweep.slave_counts) {
        for (int users : sweep.user_counts) {
          harness::ExperimentConfig run = sweep.base;
          run.num_slaves = slaves;
          run.num_users = users;
          run.seed = sweep.base.seed + sweep.seed_salt +
                     static_cast<uint64_t>(slaves) * 1000003ull +
                     static_cast<uint64_t>(users) * 7919ull;
          if (!run.placement_seed.has_value()) {
            run.placement_seed = sweep.base.seed * 131 + sweep.seed_salt;
          }
          CLOUDDB_ASSIGN_OR_RETURN(harness::ExperimentResult cell,
                                   LayeredExperiment(run, tracer, &out));
          out.sim.cells.push_back(std::move(cell));
          ++out.cells;
        }
      }
      break;
    }
    case Entry::kExperiment: {
      CLOUDDB_ASSIGN_OR_RETURN(
          harness::ExperimentResult cell,
          LayeredExperiment(workload.experiment, tracer, &out));
      out.sim.cells.push_back(std::move(cell));
      out.cells = 1;
      break;
    }
    case Entry::kControl: {
      for (const harness::ControlExperimentConfig& c : workload.controls) {
        CLOUDDB_ASSIGN_OR_RETURN(harness::ControlExperimentResult result,
                                 LayeredControl(c, tracer, &out));
        out.sim.controls.push_back(std::move(result));
        ++out.cells;
      }
      break;
    }
  }
  return out;
}

}  // namespace perfbench
