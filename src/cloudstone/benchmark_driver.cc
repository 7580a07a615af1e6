#include "cloudstone/benchmark_driver.h"
#include "client/rw_split_proxy.h"
#include "cloudstone/operations.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time_types.h"
#include "db/database.h"
#include "db/statement_cache.h"
#include "repl/replication_cluster.h"
#include "sim/simulation.h"

#include <algorithm>

namespace clouddb::cloudstone {

int64_t MetricsCollector::CountInWindow(SimTime from, SimTime to) const {
  int64_t n = 0;
  for (const OpRecord& r : records_) {
    if (r.ok && r.completed_at >= from && r.completed_at < to) ++n;
  }
  return n;
}

int64_t MetricsCollector::CountInWindow(SimTime from, SimTime to,
                                        bool reads) const {
  int64_t n = 0;
  for (const OpRecord& r : records_) {
    if (r.ok && r.is_read == reads && r.completed_at >= from &&
        r.completed_at < to) {
      ++n;
    }
  }
  return n;
}

Sample MetricsCollector::ResponseTimesMs(SimTime from, SimTime to) const {
  Sample sample;
  for (const OpRecord& r : records_) {
    if (r.ok && r.completed_at >= from && r.completed_at < to) {
      sample.Add(ToMillis(r.response_time));
    }
  }
  return sample;
}

int64_t MetricsCollector::failures() const {
  int64_t n = 0;
  for (const OpRecord& r : records_) {
    if (!r.ok) ++n;
  }
  return n;
}

UserEmulator::UserEmulator(sim::Simulation* sim,
                           client::ReadWriteSplitProxy* proxy,
                           OperationGenerator* generator,
                           MetricsCollector* metrics, Rng rng,
                           SimDuration think_time_mean)
    : sim_(sim),
      proxy_(proxy),
      generator_(generator),
      metrics_(metrics),
      rng_(rng),
      think_time_mean_(think_time_mean) {}

void UserEmulator::Activate(SimTime start, SimTime stop) {
  stop_time_ = stop;
  activated_ = false;
  // The first fire is the activation; every later fire is the end of a
  // think-time wait. Same timer slot either way, re-armed in place.
  timer_.Bind(sim_, [this] {
    if (!activated_) {
      activated_ = true;
      ThinkThenIssue();
      return;
    }
    IssueOp();
  });
  timer_.ArmAt(start);
}

void UserEmulator::ThinkThenIssue() {
  if (sim_->Now() >= stop_time_) return;
  SimDuration think = static_cast<SimDuration>(
      rng_.Exponential(static_cast<double>(think_time_mean_)));
  timer_.ArmAfter(think);
}

void UserEmulator::IssueOp() {
  if (sim_->Now() >= stop_time_) return;
  GeneratedOp op = generator_->Next(rng_);
  SimTime issued = sim_->Now();
  ++ops_issued_;
  // Route through the proxy's own statement classifier (as Connector/J
  // does): the proxy fingerprints or parses the text, not the driver's
  // op metadata. op.is_read is kept for the metrics breakdown only.
  proxy_->Execute(op.sql, op.cpu_cost, read_options_,
                  [this, type = op.type, is_read = op.is_read,
                   issued](Result<db::ExecResult> result) {
                    metrics_->Record(OpRecord{sim_->Now(), type, is_read,
                                              result.ok(),
                                              sim_->Now() - issued});
                    ThinkThenIssue();
                  });
}

BenchmarkDriver::BenchmarkDriver(sim::Simulation* sim,
                                 client::ReadWriteSplitProxy* proxy,
                                 repl::ReplicationCluster* cluster,
                                 OperationGenerator* generator,
                                 const BenchmarkOptions& options)
    : sim_(sim),
      proxy_(proxy),
      cluster_(cluster),
      generator_(generator),
      options_(options) {}

BenchmarkDriver::~BenchmarkDriver() {
  snapshot_start_.Cancel();
  snapshot_end_.Cancel();
}

void BenchmarkDriver::Start() {
  SimTime now = sim_->Now();
  steady_start_ = now + options_.ramp_up;
  steady_end_ = steady_start_ + options_.steady;
  end_time_ = steady_end_ + options_.ramp_down;

  Rng seeder(options_.seed);
  users_.reserve(static_cast<size_t>(options_.num_users));
  for (int i = 0; i < options_.num_users; ++i) {
    auto user = std::make_unique<UserEmulator>(
        sim_, proxy_, generator_, &metrics_,
        seeder.Fork(static_cast<uint64_t>(i) + 1), options_.think_time_mean);
    // Stagger user starts uniformly across the ramp-up period.
    SimTime start =
        now + (options_.ramp_up * static_cast<SimDuration>(i)) /
                  std::max(1, options_.num_users);
    user->Activate(start, end_time_);
    users_.push_back(std::move(user));
  }

  snapshot_start_ =
      sim_->ScheduleAt(steady_start_, [this] { SnapshotCpus(&busy_at_start_); });
  snapshot_end_ =
      sim_->ScheduleAt(steady_end_, [this] { SnapshotCpus(&busy_at_end_); });
}

void BenchmarkDriver::SnapshotCpus(std::vector<int64_t>* busy) const {
  busy->clear();
  busy->push_back(cluster_->master()->instance().cpu().CumulativeBusyMicros());
  for (int i = 0; i < cluster_->num_slaves(); ++i) {
    busy->push_back(
        cluster_->slave(i)->instance().cpu().CumulativeBusyMicros());
  }
}

BenchmarkReport BenchmarkDriver::Report() const {
  BenchmarkReport report;
  double window_s = ToSeconds(steady_end_ - steady_start_);
  if (window_s <= 0) return report;
  report.completed_ops = metrics_.CountInWindow(steady_start_, steady_end_);
  report.failed_ops = metrics_.failures();
  report.throughput_ops = static_cast<double>(report.completed_ops) / window_s;
  report.read_throughput_ops =
      static_cast<double>(
          metrics_.CountInWindow(steady_start_, steady_end_, true)) /
      window_s;
  report.write_throughput_ops =
      static_cast<double>(
          metrics_.CountInWindow(steady_start_, steady_end_, false)) /
      window_s;
  Sample responses = metrics_.ResponseTimesMs(steady_start_, steady_end_);
  report.mean_response_ms = responses.Mean();
  report.p95_response_ms = responses.Percentile(0.95);

  // CPU utilization over the steady window, normalizing by core count.
  if (busy_at_start_.size() == busy_at_end_.size() &&
      !busy_at_start_.empty()) {
    double window_us = static_cast<double>(steady_end_ - steady_start_);
    auto utilization = [&](size_t i, int cores) {
      return static_cast<double>(busy_at_end_[i] - busy_at_start_[i]) /
             (window_us * cores);
    };
    report.master_cpu_utilization =
        utilization(0, cluster_->master()->instance().cpu().num_cores());
    for (int i = 0; i < cluster_->num_slaves(); ++i) {
      report.slave_cpu_utilization.push_back(utilization(
          static_cast<size_t>(i) + 1,
          cluster_->slave(i)->instance().cpu().num_cores()));
    }
  }

  auto add_db_stats = [&](const db::Database& database) {
    const db::StatementCacheStats& stats = database.statement_cache().stats();
    report.statement_cache_hits += stats.hits;
    report.statement_cache_misses += stats.misses;
  };
  add_db_stats(cluster_->master()->database());
  for (int i = 0; i < cluster_->num_slaves(); ++i) {
    add_db_stats(cluster_->slave(i)->database());
  }
  report.route_cache_hits = proxy_->route_cache().stats().hits;
  report.route_cache_misses = proxy_->route_cache().stats().misses;
  report.binlog_batches = cluster_->master()->batches_shipped();
  for (int i = 0; i < cluster_->num_slaves(); ++i) {
    report.writeset_applies += cluster_->slave(i)->writeset_applies();
    report.fallback_applies += cluster_->slave(i)->fallback_applies();
  }
  return report;
}

}  // namespace clouddb::cloudstone
