#include "client/connection_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cloud/cloud_provider.h"
#include "repl/master_node.h"
#include "client/connection.h"
#include "cloud/instance.h"
#include "cloud/placement.h"
#include "common/result.h"
#include "common/status.h"
#include "common/time_types.h"
#include "db/database.h"
#include "db/statement_cache.h"
#include "repl/cost_model.h"
#include "sim/simulation.h"

namespace clouddb::client {
namespace {

/// Fixture: one app node and one database node on a deterministic cloud.
class ConnectionPoolTest : public ::testing::Test {
 protected:
  ConnectionPoolTest() {
    options_.latency_jitter_sigma = 0.0;
    options_.cpu_speed_cov = 0.0;
    options_.max_initial_clock_offset = 0;
    options_.max_clock_drift_ppm = 0.0;
    provider_ = std::make_unique<cloud::CloudProvider>(&sim_, options_, 1);
    app_ = provider_->Launch("app", cloud::InstanceType::kLarge,
                             cloud::MasterPlacement());
    db_instance_ = provider_->Launch("db", cloud::InstanceType::kSmall,
                                     cloud::MasterPlacement());
    node_ = std::make_unique<repl::MasterNode>(&sim_, &provider_->network(),
                                               db_instance_, repl::CostModel{});
    EXPECT_TRUE(node_->ExecuteDirect("CREATE TABLE t (a INT)").ok());
  }

  ConnectionPool MakePool(int max_active) {
    ConnectionPoolOptions opts;
    opts.max_active = max_active;
    return ConnectionPool(&provider_->network(), app_->node_id(), node_.get(),
                          opts);
  }

  sim::Simulation sim_;
  cloud::CloudOptions options_;
  std::unique_ptr<cloud::CloudProvider> provider_;
  cloud::Instance* app_;
  cloud::Instance* db_instance_;
  std::unique_ptr<repl::MasterNode> node_;
};

TEST_F(ConnectionPoolTest, FirstBorrowPaysHandshake) {
  ConnectionPool pool = MakePool(4);
  SimTime got_at = -1;
  pool.Borrow([&](Connection* conn) {
    got_at = sim_.Now();
    pool.Return(conn);
  });
  sim_.Run();
  // Handshake = one round trip at same-zone latency (16ms each way).
  EXPECT_EQ(got_at, 2 * options_.same_zone_one_way);
  EXPECT_EQ(pool.handshakes_performed(), 1);
  EXPECT_EQ(pool.total_connections(), 1);
}

TEST_F(ConnectionPoolTest, ReturnedConnectionIsReusedWithoutHandshake) {
  ConnectionPool pool = MakePool(4);
  pool.Borrow([&](Connection* conn) { pool.Return(conn); });
  sim_.Run();
  SimTime before = sim_.Now();
  SimTime got_at = -1;
  pool.Borrow([&](Connection* conn) {
    got_at = sim_.Now();
    pool.Return(conn);
  });
  sim_.Run();
  EXPECT_EQ(got_at, before);  // immediate, no handshake
  EXPECT_EQ(pool.handshakes_performed(), 1);
  EXPECT_EQ(pool.borrows_served(), 2);
}

TEST_F(ConnectionPoolTest, GrowsUpToMaxActive) {
  ConnectionPool pool = MakePool(3);
  std::vector<Connection*> held;
  for (int i = 0; i < 3; ++i) {
    pool.Borrow([&](Connection* conn) { held.push_back(conn); });
  }
  sim_.Run();
  EXPECT_EQ(held.size(), 3u);
  EXPECT_EQ(pool.total_connections(), 3);
  EXPECT_EQ(pool.idle_count(), 0u);
}

TEST_F(ConnectionPoolTest, ExhaustedBorrowersWaitFifo) {
  ConnectionPool pool = MakePool(1);
  Connection* first = nullptr;
  pool.Borrow([&](Connection* conn) { first = conn; });
  std::vector<int> service_order;
  pool.Borrow([&](Connection* conn) {
    service_order.push_back(1);
    pool.Return(conn);
  });
  pool.Borrow([&](Connection* conn) {
    service_order.push_back(2);
    pool.Return(conn);
  });
  sim_.Run();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(pool.waiting_borrowers(), 2u);
  pool.Return(first);  // hands the connection to waiter 1, then 2
  sim_.Run();
  EXPECT_EQ(service_order, (std::vector<int>{1, 2}));
  EXPECT_EQ(pool.total_connections(), 1);
}

TEST_F(ConnectionPoolTest, ExecuteRoundTripsThroughNetworkAndCpu) {
  ConnectionPool pool = MakePool(2);
  SimTime done_at = -1;
  int64_t count = -1;
  pool.Execute(db::CompileSql(nullptr, "SELECT COUNT(*) FROM t"), Millis(10),
               [&](Result<db::ExecResult> r) {
                 ASSERT_TRUE(r.ok());
                 count = r->rows[0][0].AsInt64();
                 done_at = sim_.Now();
               });
  sim_.Run();
  EXPECT_EQ(count, 0);
  // Handshake RTT + request one-way + 10ms CPU + response one-way.
  EXPECT_EQ(done_at, 4 * options_.same_zone_one_way + Millis(10));
  EXPECT_EQ(pool.idle_count(), 1u);  // returned after use
}

TEST_F(ConnectionPoolTest, ConnectionTracksResponseStats) {
  ConnectionPool pool = MakePool(1);
  Connection* conn = nullptr;
  pool.Borrow([&](Connection* c) { conn = c; });
  sim_.Run();
  ASSERT_NE(conn, nullptr);
  conn->Execute(db::CompileSql(nullptr, "SELECT COUNT(*) FROM t"), Millis(10),
                [&](Result<db::ExecResult>) {});
  sim_.Run();
  EXPECT_EQ(conn->requests_completed(), 1);
  EXPECT_FALSE(conn->busy());
}

TEST_F(ConnectionPoolTest, ErrorsPropagateAndConnectionIsReturned) {
  ConnectionPool pool = MakePool(1);
  Status seen;
  pool.Execute(db::CompileSql(nullptr, "SELECT * FROM missing_table"),
               Millis(1),
               [&](Result<db::ExecResult> r) { seen = r.status(); });
  sim_.Run();
  EXPECT_TRUE(seen.IsNotFound());
  EXPECT_EQ(pool.idle_count(), 1u);
}

TEST_F(ConnectionPoolTest, QueuedBorrowerKeepsItsCompiledStatement) {
  ConnectionPool pool = MakePool(1);
  std::vector<int64_t> rows_affected;
  auto record = [&](Result<db::ExecResult> r) {
    ASSERT_TRUE(r.ok());
    rows_affected.push_back(r->rows_affected);
  };
  // The second statement waits in the borrow queue; the pool's copy of its
  // compiled form is the only one left once the caller's goes away.
  pool.Execute(db::CompileSql(nullptr, "INSERT INTO t VALUES (1)"), Millis(5),
               record);
  {
    auto second = db::CompileSql(nullptr, "INSERT INTO t VALUES (2)");
    pool.Execute(second, Millis(5), record);
  }
  EXPECT_EQ(pool.waiting_borrowers(), 1u);
  sim_.Run();
  EXPECT_EQ(rows_affected, (std::vector<int64_t>{1, 1}));
  EXPECT_EQ(node_->database().binlog().size(), 3);  // CREATE and 2 INSERTs
  EXPECT_EQ(node_->database().binlog().At(2).statement,
            "INSERT INTO t VALUES (2)");
}

}  // namespace
}  // namespace clouddb::client
