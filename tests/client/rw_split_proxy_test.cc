#include "client/rw_split_proxy.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cloud/cloud_provider.h"
#include "repl/replication_cluster.h"
#include "common/result.h"
#include "common/status.h"
#include "common/time_types.h"
#include "db/database.h"
#include "db/sql_parser.h"
#include "harness/deployment.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"

namespace clouddb::client {
namespace {

class RwSplitProxyTest : public ::testing::Test {
 protected:
  RwSplitProxyTest() {
    options_.latency_jitter_sigma = 0.0;
    options_.cpu_speed_cov = 0.0;
    options_.max_initial_clock_offset = 0;
    options_.max_clock_drift_ppm = 0.0;
  }

  void MakeDeployment(int slaves, BalancePolicy policy) {
    repl::ClusterConfig config;
    config.num_slaves = slaves;
    ProxyOptions proxy_options;
    proxy_options.policy = policy;
    d_ = std::make_unique<harness::Deployment>(options_, 1, config,
                                               proxy_options);
    ASSERT_TRUE(
        d_->cluster.ExecuteEverywhereDirect("CREATE TABLE t (a INT)").ok());
  }

  cloud::CloudOptions options_;
  std::unique_ptr<harness::Deployment> d_;
};

TEST_F(RwSplitProxyTest, WritesGoToMaster) {
  MakeDeployment(2, BalancePolicy::kRoundRobin);
  for (int i = 0; i < 5; ++i) {
    d_->proxy.Execute("INSERT INTO t VALUES (1)", Millis(5),
                      [](Result<db::ExecResult> r) { ASSERT_TRUE(r.ok()); });
  }
  d_->sim.Run();
  EXPECT_EQ(d_->proxy.writes_routed(), 5);
  EXPECT_EQ(d_->proxy.total_reads_routed(), 0);
  EXPECT_EQ(d_->cluster.master()->queries_completed(), 5 + 0);
}

TEST_F(RwSplitProxyTest, RoundRobinSpreadsReadsEvenly) {
  MakeDeployment(3, BalancePolicy::kRoundRobin);
  for (int i = 0; i < 9; ++i) {
    d_->proxy.Execute("SELECT COUNT(*) FROM t", Millis(5),
                      [](Result<db::ExecResult> r) { ASSERT_TRUE(r.ok()); });
  }
  d_->sim.Run();
  EXPECT_EQ(d_->proxy.reads_routed(0), 3);
  EXPECT_EQ(d_->proxy.reads_routed(1), 3);
  EXPECT_EQ(d_->proxy.reads_routed(2), 3);
  EXPECT_EQ(d_->proxy.writes_routed(), 0);
}

TEST_F(RwSplitProxyTest, NoSlavesSendsReadsToMaster) {
  MakeDeployment(0, BalancePolicy::kRoundRobin);
  int done = 0;
  d_->proxy.Execute("SELECT COUNT(*) FROM t", Millis(5),
                    [&](Result<db::ExecResult> r) {
                      ASSERT_TRUE(r.ok());
                      ++done;
                    });
  d_->sim.Run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(d_->cluster.master()->queries_completed(), 1);
}

TEST_F(RwSplitProxyTest, LeastOutstandingAvoidsBusySlave) {
  MakeDeployment(2, BalancePolicy::kLeastOutstanding);
  // The first read goes to slave 0 (tie broken by index) and gets stuck
  // behind a 100-second CPU job, staying "outstanding" for the whole test.
  d_->cluster.slave(0)->instance().cpu().Submit(Seconds(100), [] {});
  d_->proxy.Execute("SELECT COUNT(*) FROM t", Millis(1),
                    [](Result<db::ExecResult>) {});
  // Subsequent reads are issued one at a time, each after the previous one
  // completes; slave 0 always has 1 outstanding, so all go to slave 1.
  std::function<void(int)> chain = [&](int remaining) {
    if (remaining == 0) return;
    d_->proxy.Execute("SELECT COUNT(*) FROM t", Millis(1),
                      [&, remaining](Result<db::ExecResult>) {
                        chain(remaining - 1);
                      });
  };
  chain(5);
  d_->sim.Run();
  EXPECT_EQ(d_->proxy.reads_routed(0), 1);
  EXPECT_EQ(d_->proxy.reads_routed(1), 5);
}

TEST_F(RwSplitProxyTest, LatencyWeightedPrefersFastSlave) {
  MakeDeployment(2, BalancePolicy::kLatencyWeighted);
  // Slow down slave 0 dramatically.
  // (Issue interleaved reads; the policy should learn to prefer slave 1.)
  int completed = 0;
  std::function<void(int)> issue = [&](int remaining) {
    if (remaining == 0) return;
    d_->proxy.Execute("SELECT COUNT(*) FROM t", Millis(5),
                      [&, remaining](Result<db::ExecResult>) {
                        ++completed;
                        issue(remaining - 1);
                      });
  };
  // Make slave 0 very slow by keeping its CPU busy the whole time.
  d_->cluster.slave(0)->instance().cpu().Submit(Seconds(100), [] {});
  issue(20);
  d_->sim.Run();
  EXPECT_EQ(completed, 20);
  // After the first probe of each slave, everything goes to slave 1.
  EXPECT_LE(d_->proxy.reads_routed(0), 2);
  EXPECT_GE(d_->proxy.reads_routed(1), 18);
}

TEST_F(RwSplitProxyTest, ExecuteClassifiesStatements) {
  MakeDeployment(1, BalancePolicy::kRoundRobin);
  d_->proxy.Execute("INSERT INTO t VALUES (2)", Millis(5),
                    [](Result<db::ExecResult> r) { ASSERT_TRUE(r.ok()); });
  d_->proxy.Execute("SELECT COUNT(*) FROM t", Millis(5),
                    [](Result<db::ExecResult> r) { ASSERT_TRUE(r.ok()); });
  // Text that does not parse travels to the master like a write, and the
  // master fails it with the parse error: transaction control, and the
  // statements append-only tables do not have.
  const std::vector<std::string> unparseable = {
      "BEGIN", "UPDATE t SET a = 3 WHERE a = 2", "DELETE FROM t WHERE a = 2",
      "DROP TABLE t", "TRUNCATE t"};
  std::vector<Status> failed(unparseable.size());
  for (size_t i = 0; i < unparseable.size(); ++i) {
    d_->proxy.Execute(unparseable[i], Millis(5),
                      [&failed, i](Result<db::ExecResult> r) {
                        failed[i] = r.status();
                      });
  }
  d_->sim.Run();
  EXPECT_EQ(d_->proxy.writes_routed(), 1 + 5);
  EXPECT_EQ(d_->proxy.total_reads_routed(), 1);
  for (size_t i = 0; i < unparseable.size(); ++i) {
    EXPECT_FALSE(failed[i].ok()) << unparseable[i];
    EXPECT_EQ(failed[i].ToString(),
              db::ParseSql(unparseable[i]).status().ToString());
  }
  EXPECT_EQ(d_->cluster.master()->queries_failed(), 5);
  // None of them changed anything: the table holds the one inserted row.
  d_->proxy.Execute("SELECT COUNT(*) FROM t", Millis(5),
                    [](Result<db::ExecResult> r) {
                      ASSERT_TRUE(r.ok());
                      EXPECT_EQ(r->rows[0][0].AsInt64(), 1);
                    });
  d_->sim.Run();
  EXPECT_TRUE(d_->cluster.Converged());
}

TEST_F(RwSplitProxyTest, ReadYourWritesCanBeStale) {
  // The paper's staleness window, observable through the proxy: a read sent
  // immediately after a write completes may not see it on the slave.
  MakeDeployment(1, BalancePolicy::kRoundRobin);
  int64_t read_count = -1;
  d_->proxy.Execute(
      "INSERT INTO t VALUES (42)", Millis(5),
      [&](Result<db::ExecResult> r) {
        ASSERT_TRUE(r.ok());
        d_->proxy.Execute("SELECT COUNT(*) FROM t", Millis(5),
                          [&](Result<db::ExecResult> rr) {
                            ASSERT_TRUE(rr.ok());
                            read_count = rr->rows[0][0].AsInt64();
                          });
      });
  d_->sim.Run();
  // With same-zone latencies the slave applies the event (~20ms after
  // commit) before the read arrives (~32ms later: round trip to the app and
  // back), so this read *does* see the write. The invariant that always
  // holds is eventual consistency:
  EXPECT_GE(read_count, 0);
  EXPECT_TRUE(d_->cluster.Converged());
}

TEST_F(RwSplitProxyTest, PolicyNamesRender) {
  EXPECT_STREQ(BalancePolicyToString(BalancePolicy::kRoundRobin),
               "round_robin");
  EXPECT_STREQ(BalancePolicyToString(BalancePolicy::kLeastOutstanding),
               "least_outstanding");
  EXPECT_STREQ(BalancePolicyToString(BalancePolicy::kLatencyWeighted),
               "latency_weighted");
}

}  // namespace
}  // namespace clouddb::client
