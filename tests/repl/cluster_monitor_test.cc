#include "repl/cluster_monitor.h"

#include <gtest/gtest.h>

#include "cloud/cloud_provider.h"
#include "common/str_util.h"
#include "repl/replication_cluster.h"
#include "common/result.h"
#include "common/table_writer.h"
#include "common/time_types.h"
#include "db/database.h"
#include "sim/simulation.h"

namespace clouddb::repl {
namespace {

class ClusterMonitorTest : public ::testing::Test {
 protected:
  ClusterMonitorTest() {
    options_.latency_jitter_sigma = 0.0;
    options_.cpu_speed_cov = 0.0;
    options_.max_initial_clock_offset = 0;
    options_.max_clock_drift_ppm = 0.0;
    provider_ = std::make_unique<cloud::CloudProvider>(&sim_, options_, 1);
    ClusterConfig config;
    config.num_slaves = 2;
    cluster_ = std::make_unique<ReplicationCluster>(provider_.get(), config);
    EXPECT_TRUE(cluster_->master()
                    ->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY)")
                    .ok());
    sim_.Run();
  }

  ClusterMonitor MakeMonitor(SimDuration interval) {
    return ClusterMonitor(&sim_, cluster_->master(),
                          {cluster_->slave(0), cluster_->slave(1)}, interval);
  }

  sim::Simulation sim_;
  cloud::CloudOptions options_;
  std::unique_ptr<cloud::CloudProvider> provider_;
  std::unique_ptr<ReplicationCluster> cluster_;
};

TEST_F(ClusterMonitorTest, SamplesAtRequestedCadence) {
  ClusterMonitor monitor = MakeMonitor(Seconds(1));
  monitor.Start();
  sim_.RunUntil(sim_.Now() + Seconds(10));
  monitor.Stop();
  sim_.Run();
  EXPECT_EQ(monitor.samples().size(), 10u);
  ASSERT_FALSE(monitor.samples().empty());
  EXPECT_EQ(monitor.samples()[0].slave_cpu.size(), 2u);
}

TEST_F(ClusterMonitorTest, IdleClusterShowsZeroUtilization) {
  ClusterMonitor monitor = MakeMonitor(Seconds(1));
  monitor.Start();
  sim_.RunUntil(sim_.Now() + Seconds(5));
  monitor.Stop();
  sim_.Run();
  EXPECT_DOUBLE_EQ(monitor.MeanMasterCpu(), 0.0);
  EXPECT_EQ(monitor.MaxLagEvents(), 0);
  EXPECT_DOUBLE_EQ(monitor.SlaveSaturatedFraction(0, 0.5), 0.0);
}

TEST_F(ClusterMonitorTest, LoadShowsUpInUtilizationAndBacklog) {
  ClusterMonitor monitor = MakeMonitor(Seconds(1));
  monitor.Start();
  // Saturate slave 0 with reads and push writes through the master.
  for (int i = 0; i < 100; ++i) {
    cluster_->slave(0)->Submit("SELECT COUNT(*) FROM t", Millis(80),
                               [](Result<db::ExecResult>) {});
  }
  for (int i = 0; i < 50; ++i) {
    cluster_->master()->Submit(
        StrFormat("INSERT INTO t VALUES (%d)", i), Millis(20),
        [](Result<db::ExecResult>) {});
  }
  sim_.RunUntil(sim_.Now() + Seconds(5));
  // While slave 0's CPU is busy with reads, its applies queue: lag > 0.
  EXPECT_GT(monitor.MaxLagEvents(), 0);
  EXPECT_GT(monitor.MeanMasterCpu(), 0.0);
  EXPECT_GT(monitor.SlaveSaturatedFraction(0, 0.9), 0.5);
  monitor.Stop();
  sim_.Run();
  // Utilizations stay within [0, 1] throughout.
  for (const MonitorSample& sample : monitor.samples()) {
    EXPECT_GE(sample.master_cpu, 0.0);
    EXPECT_LE(sample.master_cpu, 1.0 + 1e-9);
    for (double u : sample.slave_cpu) {
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 1.0 + 1e-9);
    }
  }
}

TEST_F(ClusterMonitorTest, TableHasOneRowPerSample) {
  ClusterMonitor monitor = MakeMonitor(Millis(500));
  monitor.Start();
  sim_.RunUntil(sim_.Now() + Seconds(3));
  monitor.Stop();
  sim_.Run();
  TableWriter table = monitor.ToTable();
  EXPECT_EQ(table.num_rows(), monitor.samples().size());
  std::string ascii = table.ToAscii();
  EXPECT_NE(ascii.find("master_cpu"), std::string::npos);
  EXPECT_NE(ascii.find("slave2_backlog"), std::string::npos);
}

TEST_F(ClusterMonitorTest, StopHaltsSampling) {
  ClusterMonitor monitor = MakeMonitor(Seconds(1));
  monitor.Start();
  sim_.RunUntil(sim_.Now() + Seconds(3));
  monitor.Stop();
  size_t count = monitor.samples().size();
  sim_.RunUntil(sim_.Now() + Seconds(10));
  sim_.Run();
  EXPECT_EQ(monitor.samples().size(), count);
}

}  // namespace
}  // namespace clouddb::repl
