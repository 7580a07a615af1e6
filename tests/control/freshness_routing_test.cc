// Freshness-SLA routing edge cases: bounded reads against a proxy whose
// staleness signal is a test-controlled probe (per-slave ms, negative =
// unknown) — the same shape control::FreshnessTracker::Probe() produces.

#include "client/rw_split_proxy.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cloud/cloud_provider.h"
#include "common/result.h"
#include "common/time_types.h"
#include "db/database.h"
#include "harness/deployment.h"
#include "repl/replication_cluster.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"
#include "metrics/metric_registry.h"

namespace clouddb::client {
namespace {

class FreshnessRoutingTest : public ::testing::Test {
 protected:
  FreshnessRoutingTest() {
    options_.latency_jitter_sigma = 0.0;
    options_.cpu_speed_cov = 0.0;
    options_.max_initial_clock_offset = 0;
    options_.max_clock_drift_ppm = 0.0;
  }

  void MakeDeployment(int slaves) {
    repl::ClusterConfig config;
    config.num_slaves = slaves;
    ProxyOptions proxy_options;
    proxy_options.policy = BalancePolicy::kFreshnessAware;
    d_ = std::make_unique<harness::Deployment>(options_, 1, config,
                                               proxy_options);
    staleness_ms_.assign(static_cast<size_t>(slaves), -1.0);
    d_->proxy.SetStalenessProbe([this](int i) {
      return staleness_ms_[static_cast<size_t>(i)];
    });
    ASSERT_TRUE(
        d_->cluster.ExecuteEverywhereDirect("CREATE TABLE t (a INT)").ok());
  }

  int64_t Metric(const char* name) const {
    const metrics::Counter* c = d_->proxy.metrics().FindCounter(name);
    return c == nullptr ? -1 : c->value();
  }

  void BoundedRead(SimDuration bound, int* ok_count) {
    ReadOptions read_options;
    read_options.max_staleness = bound;
    d_->proxy.Execute("SELECT COUNT(*) FROM t", Millis(1),
                      read_options, [ok_count](Result<db::ExecResult> r) {
                        *ok_count += r.ok();
                      });
  }

  cloud::CloudOptions options_;
  std::unique_ptr<harness::Deployment> d_;
  std::vector<double> staleness_ms_;
};

TEST_F(FreshnessRoutingTest, InBoundSlaveServesBoundedReads) {
  MakeDeployment(2);
  staleness_ms_ = {40.0, 40.0};
  int ok = 0;
  for (int i = 0; i < 6; ++i) BoundedRead(Millis(100), &ok);
  d_->sim.Run();
  EXPECT_EQ(ok, 6);
  EXPECT_EQ(d_->proxy.reads_routed(0) + d_->proxy.reads_routed(1), 6);
  EXPECT_EQ(Metric("proxy.reads.bounded"), 6);
  EXPECT_EQ(Metric("proxy.reads.bounded_to_slave"), 6);
  EXPECT_EQ(Metric("proxy.reads.master_fallback"), 0);
}

TEST_F(FreshnessRoutingTest, AllSlavesOverBoundFallsBackToMaster) {
  MakeDeployment(2);
  staleness_ms_ = {900.0, 1500.0};
  int ok = 0;
  for (int i = 0; i < 4; ++i) BoundedRead(Millis(100), &ok);
  d_->sim.Run();
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(d_->proxy.total_reads_routed(), 0);
  EXPECT_EQ(d_->cluster.master()->queries_completed(), 4);
  EXPECT_EQ(Metric("proxy.reads.master_fallback"), 4);
  EXPECT_EQ(Metric("proxy.reads.bounded_to_slave"), 0);
}

TEST_F(FreshnessRoutingTest, OnlyInBoundSlavesAreEligible) {
  MakeDeployment(2);
  staleness_ms_ = {2000.0, 10.0};  // slave 0 lagging badly, slave 1 fresh
  int ok = 0;
  for (int i = 0; i < 6; ++i) BoundedRead(Millis(100), &ok);
  d_->sim.Run();
  EXPECT_EQ(ok, 6);
  EXPECT_EQ(d_->proxy.reads_routed(0), 0);
  EXPECT_EQ(d_->proxy.reads_routed(1), 6);
}

TEST_F(FreshnessRoutingTest, BoundZeroAlwaysGoesToMaster) {
  MakeDeployment(2);
  staleness_ms_ = {0.0, 0.0};  // even "zero observed staleness" is not exact
  int ok = 0;
  for (int i = 0; i < 3; ++i) BoundedRead(SimDuration{0}, &ok);
  d_->sim.Run();
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(d_->proxy.total_reads_routed(), 0);
  EXPECT_EQ(d_->cluster.master()->queries_completed(), 3);
}

TEST_F(FreshnessRoutingTest, UnknownStalenessCountsAsOverBound) {
  MakeDeployment(1);
  staleness_ms_ = {-1.0};  // probe has no data yet
  int ok = 0;
  BoundedRead(Millis(100), &ok);
  d_->sim.Run();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(d_->proxy.total_reads_routed(), 0);
  EXPECT_EQ(Metric("proxy.reads.master_fallback"), 1);
}

TEST_F(FreshnessRoutingTest, UnboundedReadsIgnoreStaleness) {
  MakeDeployment(2);
  staleness_ms_ = {5000.0, 5000.0};  // hopelessly stale — and irrelevant
  int ok = 0;
  for (int i = 0; i < 4; ++i) BoundedRead(kNoStalenessBound, &ok);
  d_->sim.Run();
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(d_->proxy.total_reads_routed(), 4);
}

TEST_F(FreshnessRoutingTest, SlavePartitionedMidQueryRetriesOnMaster) {
  MakeDeployment(1);
  staleness_ms_ = {10.0};                   // probe says fresh...
  d_->cluster.slave(0)->set_online(false);  // ...but the node is unreachable
  int ok = 0;
  BoundedRead(Millis(100), &ok);
  d_->sim.Run();
  // The bounded read was routed to the slave, failed Unavailable, and was
  // transparently retried on the master — the caller sees one success.
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(d_->proxy.reads_routed(0), 1);
  EXPECT_EQ(d_->cluster.master()->queries_completed(), 1);
  EXPECT_EQ(Metric("proxy.reads.retries"), 1);
}

TEST_F(FreshnessRoutingTest, SlaViolationIsCountedAtCompletion) {
  MakeDeployment(1);
  staleness_ms_ = {10.0};
  int ok = 0;
  BoundedRead(Millis(100), &ok);
  // While the read is in flight the replica falls behind; the completion-time
  // re-probe must count the violation.
  staleness_ms_ = {400.0};
  d_->sim.Run();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(Metric("proxy.sla.checked"), 1);
  EXPECT_EQ(Metric("proxy.sla.violations"), 1);
}

TEST_F(FreshnessRoutingTest, ReactivatedSlaveRejoinsBoundedRotation) {
  MakeDeployment(2);
  staleness_ms_ = {5.0, 5.0};
  d_->proxy.DeactivateSlave(0);
  int ok = 0;
  for (int i = 0; i < 4; ++i) BoundedRead(Millis(100), &ok);
  d_->sim.Run();
  EXPECT_EQ(d_->proxy.reads_routed(0), 0);
  EXPECT_EQ(d_->proxy.reads_routed(1), 4);
  d_->proxy.ReactivateSlave(0);
  for (int i = 0; i < 4; ++i) BoundedRead(Millis(100), &ok);
  d_->sim.Run();
  EXPECT_EQ(ok, 8);
  EXPECT_GT(d_->proxy.reads_routed(0), 0);
}

}  // namespace
}  // namespace clouddb::client
