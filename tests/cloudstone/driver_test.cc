#include "cloudstone/benchmark_driver.h"

#include <gtest/gtest.h>

#include "cloud/cloud_provider.h"
#include "cloudstone/schema.h"
#include "client/rw_split_proxy.h"
#include "cloudstone/operations.h"
#include "common/stats.h"
#include "common/time_types.h"
#include "harness/deployment.h"
#include "repl/replication_cluster.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"

namespace clouddb::cloudstone {
namespace {

class DriverTest : public ::testing::Test {
 protected:
  DriverTest() {
    cloud_options_.latency_jitter_sigma = 0.0;
    cloud_options_.cpu_speed_cov = 0.0;
    cloud_options_.max_initial_clock_offset = 0;
    cloud_options_.max_clock_drift_ppm = 0.0;
  }

  void Deploy(int slaves) {
    repl::ClusterConfig cluster_config;
    cluster_config.num_slaves = slaves;
    cluster_config.cost_model = MakeWorkloadCostModel(OperationCosts{});
    d_ = std::make_unique<harness::Deployment>(
        cloud_options_, 1, cluster_config, client::ProxyOptions{});
    ASSERT_TRUE(d_->Load(30, 2).ok());
    generator_ = std::make_unique<OperationGenerator>(
        WorkloadMix::FiftyFifty(), OperationCosts{}, &d_->state);
  }

  cloud::CloudOptions cloud_options_;
  std::unique_ptr<harness::Deployment> d_;
  std::unique_ptr<OperationGenerator> generator_;
};

TEST_F(DriverTest, PhasesAreLaidOutSequentially) {
  Deploy(1);
  BenchmarkOptions options;
  options.num_users = 5;
  options.ramp_up = Minutes(2);
  options.steady = Minutes(3);
  options.ramp_down = Minutes(1);
  BenchmarkDriver driver(&d_->sim, &d_->proxy, &d_->cluster, generator_.get(),
                         options);
  driver.Start();
  EXPECT_EQ(driver.steady_start(), Minutes(2));
  EXPECT_EQ(driver.steady_end(), Minutes(5));
  EXPECT_EQ(driver.end_time(), Minutes(6));
}

TEST_F(DriverTest, RunProducesThroughputAndResponseStats) {
  Deploy(2);
  BenchmarkOptions options;
  options.num_users = 20;
  options.ramp_up = Minutes(1);
  options.steady = Minutes(4);
  options.ramp_down = Seconds(30);
  options.think_time_mean = Seconds(5);
  options.seed = 3;
  BenchmarkDriver driver(&d_->sim, &d_->proxy, &d_->cluster, generator_.get(),
                         options);
  driver.Start();
  d_->sim.RunUntil(driver.end_time());
  d_->sim.Run();  // drain

  BenchmarkReport report = driver.Report();
  // Closed loop, 20 users, ~5s cycles: roughly 4 ops/s, certainly 2..6.
  EXPECT_GT(report.throughput_ops, 2.0);
  EXPECT_LT(report.throughput_ops, 6.0);
  EXPECT_GT(report.completed_ops, 0);
  EXPECT_EQ(report.failed_ops, 0);
  EXPECT_GT(report.mean_response_ms, 0.0);
  EXPECT_GE(report.p95_response_ms, report.mean_response_ms);
  // ~50/50 mix.
  EXPECT_NEAR(report.read_throughput_ops,
              report.write_throughput_ops,
              0.5 * report.throughput_ops);
  // Utilizations measured and sane.
  EXPECT_GT(report.master_cpu_utilization, 0.0);
  EXPECT_LT(report.master_cpu_utilization, 1.01);
  ASSERT_EQ(report.slave_cpu_utilization.size(), 2u);
  for (double u : report.slave_cpu_utilization) {
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.01);
  }
  // Replication stayed healthy and converged after drain.
  EXPECT_TRUE(d_->cluster.FullyReplicated());
  EXPECT_TRUE(d_->cluster.Converged());
}

/// Builds a fresh deployment and runs a short benchmark; returns steady
/// throughput. Everything is seeded, so two calls must agree exactly.
double RunSeededBenchmark(uint64_t seed) {
  repl::ClusterConfig cluster_config;
  cluster_config.cost_model = MakeWorkloadCostModel(OperationCosts{});
  // Jitter and variance on: still seeded.
  harness::Deployment d(cloud::CloudOptions{}, seed, cluster_config,
                        client::ProxyOptions{});
  EXPECT_TRUE(d.Load(30, seed).ok());
  OperationGenerator generator(WorkloadMix::FiftyFifty(), OperationCosts{},
                               &d.state);
  BenchmarkOptions options;
  options.num_users = 10;
  options.ramp_up = Seconds(30);
  options.steady = Minutes(2);
  options.ramp_down = Seconds(10);
  options.seed = seed;
  BenchmarkDriver driver(&d.sim, &d.proxy, &d.cluster, &generator, options);
  driver.Start();
  d.sim.RunUntil(driver.end_time());
  d.sim.Run();
  return driver.Report().throughput_ops;
}

TEST_F(DriverTest, DeterministicUnderSeed) {
  double t1 = RunSeededBenchmark(99);
  double t2 = RunSeededBenchmark(99);
  EXPECT_DOUBLE_EQ(t1, t2);
  EXPECT_GT(t1, 0.0);
}

TEST_F(DriverTest, UsersStopAtEndTime) {
  Deploy(1);
  BenchmarkOptions options;
  options.num_users = 5;
  options.ramp_up = Seconds(10);
  options.steady = Seconds(60);
  options.ramp_down = Seconds(10);
  options.think_time_mean = Seconds(2);
  BenchmarkDriver driver(&d_->sim, &d_->proxy, &d_->cluster, generator_.get(),
                         options);
  driver.Start();
  d_->sim.RunUntil(driver.end_time());
  d_->sim.Run();
  // The simulation drains fully: no runaway event sources.
  EXPECT_EQ(d_->sim.pending_events(), 0u);
  // No operation completed after a grace window past end_time.
  for (const OpRecord& r : driver.metrics().records()) {
    EXPECT_LT(r.completed_at, driver.end_time() + Minutes(2));
  }
}

TEST_F(DriverTest, MetricsCollectorWindows) {
  MetricsCollector metrics;
  metrics.Record({Seconds(1), OpType::kViewEvent, true, true, Millis(10)});
  metrics.Record({Seconds(2), OpType::kCreateEvent, false, true, Millis(20)});
  metrics.Record({Seconds(3), OpType::kViewEvent, true, false, Millis(30)});
  metrics.Record({Seconds(10), OpType::kViewEvent, true, true, Millis(40)});
  EXPECT_EQ(metrics.CountInWindow(0, Seconds(5)), 2);  // failures excluded
  EXPECT_EQ(metrics.CountInWindow(0, Seconds(5), true), 1);
  EXPECT_EQ(metrics.CountInWindow(0, Seconds(5), false), 1);
  EXPECT_EQ(metrics.failures(), 1);
  Sample responses = metrics.ResponseTimesMs(0, Seconds(20));
  EXPECT_EQ(responses.count(), 3u);
  EXPECT_NEAR(responses.Mean(), (10 + 20 + 40) / 3.0, 1e-9);
}

}  // namespace
}  // namespace clouddb::cloudstone
