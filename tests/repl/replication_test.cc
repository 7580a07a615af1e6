#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cloud_provider.h"
#include "cloudstone/schema.h"
#include "common/stats.h"
#include "common/str_util.h"
#include "repl/delay_monitor.h"
#include "repl/heartbeat.h"
#include "repl/master_node.h"
#include "repl/replication_cluster.h"
#include "repl/slave_node.h"
#include "common/result.h"
#include "common/time_types.h"
#include "db/binlog.h"
#include "db/database.h"
#include "db/statement_cache.h"
#include "db/table.h"
#include "db/value.h"
#include "repl/cost_model.h"
#include "sim/simulation.h"

namespace clouddb::repl {
namespace {

/// A cluster on a deterministic cloud with jitter and variance disabled
/// unless a test opts in.
class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest() {
    options_.latency_jitter_sigma = 0.0;
    options_.cpu_speed_cov = 0.0;
    options_.max_initial_clock_offset = 0;
    options_.max_clock_drift_ppm = 0.0;
  }

  std::unique_ptr<ReplicationCluster> MakeCluster(int slaves,
                                                  bool sync = false) {
    provider_ = std::make_unique<cloud::CloudProvider>(&sim_, options_, 1);
    ClusterConfig config;
    config.num_slaves = slaves;
    config.synchronous_replication = sync;
    return std::make_unique<ReplicationCluster>(provider_.get(), config);
  }

  sim::Simulation sim_;
  cloud::CloudOptions options_;
  std::unique_ptr<cloud::CloudProvider> provider_;
};

TEST_F(ReplicationTest, WritesPropagateToAllSlaves) {
  auto cluster = MakeCluster(3);
  ASSERT_TRUE(cluster->master()
                  ->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY)")
                  .ok());
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("INSERT INTO t VALUES (1)").ok());
  sim_.Run();  // drain replication
  EXPECT_TRUE(cluster->FullyReplicated());
  EXPECT_TRUE(cluster->Converged());
  for (int i = 0; i < 3; ++i) {
    auto r = cluster->slave(i)->database().Execute("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0].AsInt64(), 1);
  }
}

TEST_F(ReplicationTest, ReadsDoNotReplicate) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("CREATE TABLE t (a INT)").ok());
  sim_.Run();
  int64_t size = cluster->master()->database().binlog().size();
  ASSERT_TRUE(cluster->master()->ExecuteDirect("SELECT * FROM t").ok());
  sim_.Run();
  EXPECT_EQ(cluster->master()->database().binlog().size(), size);
  EXPECT_EQ(cluster->slave(0)->events_applied(), size);
}

TEST_F(ReplicationTest, EventsApplyInOrder) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->master()
                  ->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
                  .ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster->master()
                    ->ExecuteDirect(StrFormat("INSERT INTO t VALUES (%d, %d)",
                                              i, i))
                    .ok());
    ASSERT_TRUE(cluster->master()
                    ->ExecuteDirect(StrFormat(
                        "UPDATE t SET b = b * 2 + 1 WHERE a = %d", i))
                    .ok());
  }
  sim_.Run();
  EXPECT_TRUE(cluster->Converged());
  EXPECT_EQ(cluster->slave(0)->applied_index(),
            cluster->master()->database().binlog().size() - 1);
}

TEST_F(ReplicationTest, AsyncWriteCompletesBeforeSlaveApplies) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("CREATE TABLE t (a INT)").ok());
  sim_.Run();
  bool responded = false;
  cluster->master()->Submit("INSERT INTO t VALUES (1)", Millis(10),
                            [&](Result<db::ExecResult> r) {
                              ASSERT_TRUE(r.ok());
                              responded = true;
                              // Asynchronous: the slave cannot have applied
                              // yet (one-way latency alone exceeds 0).
                              EXPECT_LT(cluster->slave(0)->events_applied(),
                                        cluster->master()->binlog_size());
                            });
  sim_.Run();
  EXPECT_TRUE(responded);
  EXPECT_TRUE(cluster->Converged());
}

TEST_F(ReplicationTest, SyncWriteWaitsForAllSlaveAcks) {
  auto cluster = MakeCluster(2, /*sync=*/true);
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("CREATE TABLE t (a INT)").ok());
  sim_.Run();
  SimTime responded_at = -1;
  cluster->master()->Submit("INSERT INTO t VALUES (1)", Millis(10),
                            [&](Result<db::ExecResult> r) {
                              ASSERT_TRUE(r.ok());
                              responded_at = sim_.Now();
                              // Both slaves must already have applied.
                              EXPECT_EQ(cluster->slave(0)->events_applied(),
                                        cluster->master()->binlog_size());
                              EXPECT_EQ(cluster->slave(1)->events_applied(),
                                        cluster->master()->binlog_size());
                            });
  sim_.Run();
  ASSERT_GT(responded_at, 0);
  // Response time covers master exec + one-way push + apply + ack.
  EXPECT_GE(responded_at, Millis(10) + 2 * options_.same_zone_one_way);
}

TEST_F(ReplicationTest, SyncModeSlowerThanAsyncForTheClient) {
  SimTime async_done = 0;
  SimTime sync_done = 0;
  for (bool sync : {false, true}) {
    sim::Simulation sim;
    auto provider = std::make_unique<cloud::CloudProvider>(&sim, options_, 1);
    ClusterConfig config;
    config.num_slaves = 3;
    config.synchronous_replication = sync;
    ReplicationCluster cluster(provider.get(), config);
    ASSERT_TRUE(
        cluster.master()->ExecuteDirect("CREATE TABLE t (a INT)").ok());
    sim.Run();
    SimTime start = sim.Now();
    SimTime done = 0;
    cluster.master()->Submit("INSERT INTO t VALUES (1)", Millis(10),
                             [&](Result<db::ExecResult>) { done = sim.Now(); });
    sim.Run();
    (sync ? sync_done : async_done) = done - start;
  }
  EXPECT_GT(sync_done, async_done);
}

TEST_F(ReplicationTest, FailedStatementsDoNotReplicate) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->master()
                  ->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY)")
                  .ok());
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(
      cluster->master()->ExecuteDirect("INSERT INTO t VALUES (1)").ok());
  sim_.Run();
  EXPECT_TRUE(cluster->Converged());
  auto r = cluster->slave(0)->database().Execute("SELECT COUNT(*) FROM t");
  EXPECT_EQ(r->rows[0][0].AsInt64(), 1);
}

TEST_F(ReplicationTest, SlaveAppliesChargeCpu) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("CREATE TABLE t (a INT)").ok());
  sim_.Run();
  int64_t busy_before = cluster->slave(0)->instance().cpu().CumulativeBusyMicros();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster->master()
                    ->ExecuteDirect(StrFormat("INSERT INTO t VALUES (%d)", i))
                    .ok());
  }
  sim_.Run();
  int64_t busy_after = cluster->slave(0)->instance().cpu().CumulativeBusyMicros();
  // 10 inserts at apply cost = 0.5 * insert_cost (30ms) = 150ms.
  CostModel defaults;
  EXPECT_EQ(busy_after - busy_before,
            10 * static_cast<int64_t>(defaults.apply_factor *
                                      static_cast<double>(defaults.insert_cost)));
}

TEST_F(ReplicationTest, BrokenSlaveStopsApplying) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->master()
                  ->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY)")
                  .ok());
  sim_.Run();
  // Sabotage: insert a conflicting row directly on the slave (out-of-band
  // write — the classic way operators break MySQL replication).
  ASSERT_TRUE(
      cluster->slave(0)->database().Execute("INSERT INTO t VALUES (7)").ok());
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("INSERT INTO t VALUES (7)").ok());
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("INSERT INTO t VALUES (8)").ok());
  sim_.Run();
  EXPECT_TRUE(cluster->slave(0)->replication_broken());
  // The event after the failure was never applied.
  auto r = cluster->slave(0)->database().Execute(
      "SELECT COUNT(*) FROM t WHERE a = 8");
  EXPECT_EQ(r->rows[0][0].AsInt64(), 0);
  EXPECT_FALSE(cluster->FullyReplicated());
}

TEST_F(ReplicationTest, UnparseableEventStopsTheSqlThread) {
  auto cluster = MakeCluster(1);
  SlaveNode* slave = cluster->slave(0);
  // Text no master would log: it compiles to nothing, and fails again when
  // the apply compiles it.
  db::BinlogEvent event;
  event.statements = {"NOT SQL"};
  slave->OnBinlogEvent(event);
  sim_.Run();
  EXPECT_TRUE(slave->replication_broken());
  EXPECT_EQ(slave->queries_failed(), 1);
  EXPECT_EQ(slave->applied_index(), -1);
}

TEST_F(ReplicationTest, ExecuteEverywhereDirectDoesNotReplicate) {
  auto cluster = MakeCluster(2);
  ASSERT_TRUE(
      cluster->ExecuteEverywhereDirect("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(cluster->ExecuteEverywhereDirect("INSERT INTO t VALUES (1)").ok());
  sim_.Run();
  // Nothing went through the binlog; contents equal by direct loading.
  EXPECT_EQ(cluster->master()->database().binlog().size(), 0);
  EXPECT_TRUE(cluster->Converged());
  EXPECT_TRUE(cluster->FullyReplicated());  // trivially: empty binlog
}

/// A cluster with its own simulation and cloud, so one test can build two
/// from the same seeds.
struct Tier {
  Tier(const cloud::CloudOptions& options, int slaves)
      : provider(&sim, options, /*seed=*/1),
        cluster(&provider, [slaves] {
          ClusterConfig config;
          config.num_slaves = slaves;
          return config;
        }()) {}

  db::Database& replica(int i) {
    return i == 0 ? cluster.master()->database()
                  : cluster.slave(i - 1)->database();
  }

  sim::Simulation sim;
  cloud::CloudProvider provider;
  ReplicationCluster cluster;
};

std::vector<std::pair<db::RowId, db::Row>> RowsOf(const db::Table& table) {
  std::vector<std::pair<db::RowId, db::Row>> rows;
  table.ForEachRow([&](db::RowId id, const db::Row& row) {
    rows.emplace_back(id, row);
    return true;
  });
  return rows;
}

void ExpectSameStats(const db::StatementCacheStats& a,
                     const db::StatementCacheStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.bypasses, b.bypasses);
}

// Loading the master once and copying it onto each slave leaves every
// replica exactly as running each load statement on every replica does:
// tables, RowIds, rows, indexes and statement-cache counters, with nothing
// in the binlog. Checked on both of the shared executor's branches.
TEST_F(ReplicationTest, LoadDirectMatchesLoadingEveryReplica) {
  for (bool cache : {true, false}) {
    SCOPED_TRACE(cache ? "statement cache on" : "statement cache off");
    Tier copied(options_, 3);
    Tier everywhere(options_, 3);
    copied.cluster.SetStatementCacheEnabled(cache);
    everywhere.cluster.SetStatementCacheEnabled(cache);
    cloudstone::WorkloadState copied_state, everywhere_state;
    ASSERT_TRUE(copied.cluster
                    .LoadDirect([&](const auto& execute) {
                      return cloudstone::LoadInitialData(
                          execute, /*scale=*/20, /*seed=*/5, &copied_state);
                    })
                    .ok());
    ASSERT_TRUE(cloudstone::LoadInitialData(
                    [&](const std::string& sql) {
                      return everywhere.cluster.ExecuteEverywhereDirect(sql);
                    },
                    /*scale=*/20, /*seed=*/5, &everywhere_state)
                    .ok());
    EXPECT_EQ(copied_state.next_comment_id, everywhere_state.next_comment_id);

    for (int r = 0; r <= 3; ++r) {
      SCOPED_TRACE(r == 0 ? std::string("master") : StrFormat("slave %d", r));
      const db::Database& a = copied.replica(r);
      const db::Database& b = everywhere.replica(r);
      ASSERT_EQ(a.TableNames(), b.TableNames());
      for (const std::string& name : a.TableNames()) {
        const db::Table* ta = a.GetTable(name);
        const db::Table* tb = b.GetTable(name);
        EXPECT_TRUE(RowsOf(*ta) == RowsOf(*tb)) << name;
        EXPECT_EQ(ta->SecondaryIndexes(), tb->SecondaryIndexes()) << name;
      }
      std::string err;
      EXPECT_TRUE(a.ValidateAllIndexes(&err)) << err;
      EXPECT_TRUE(b.ValidateAllIndexes(&err)) << err;
      ExpectSameStats(a.statement_cache().stats(),
                      b.statement_cache().stats());
    }
    for (Tier* tier : {&copied, &everywhere}) {
      EXPECT_EQ(tier->cluster.master()->binlog_size(), 0);
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(tier->cluster.slave(i)->applied_index(), -1);
      }
      EXPECT_TRUE(tier->cluster.FullyReplicated());
      EXPECT_TRUE(tier->cluster.Converged());
    }

    // Both tiers replicate the next write from the same starting point.
    for (Tier* tier : {&copied, &everywhere}) {
      ASSERT_TRUE(tier->cluster.master()
                      ->ExecuteDirect("INSERT INTO tags (tag_id, name) "
                                      "VALUES (100000, 'fresh')")
                      .ok());
      tier->sim.Run();
      EXPECT_TRUE(tier->cluster.FullyReplicated());
      EXPECT_TRUE(tier->cluster.Converged());
    }
  }
}

TEST_F(ReplicationTest, AddedSlaveIsATrueCopyOfTheMaster) {
  auto cluster = MakeCluster(1);
  cloudstone::WorkloadState state;
  ASSERT_TRUE(cluster
                  ->LoadDirect([&](const auto& execute) {
                    return cloudstone::LoadInitialData(
                        execute, /*scale=*/20, /*seed=*/5, &state);
                  })
                  .ok());
  // A replicated delete leaves a RowId gap the copy must keep.
  ASSERT_TRUE(cluster->master()
                  ->ExecuteDirect("DELETE FROM events WHERE event_id = 1")
                  .ok());
  sim_.Run();
  Result<int> added = cluster->AddSlave();
  ASSERT_TRUE(added.ok());
  sim_.Run();

  const db::Database& master = cluster->master()->database();
  const db::Database& copy = cluster->slave(*added)->database();
  size_t indexes = 0;
  for (const std::string& name : master.TableNames()) {
    const db::Table* from = master.GetTable(name);
    const db::Table* to = copy.GetTable(name);
    ASSERT_NE(to, nullptr) << name;
    EXPECT_EQ(to->SecondaryIndexes(), from->SecondaryIndexes()) << name;
    indexes += from->SecondaryIndexes().size();
    EXPECT_EQ(to->num_rows(), from->num_rows()) << name;
    from->ForEachRow([&](db::RowId id, const db::Row& row) {
      const db::Row* same = to->Get(id);
      EXPECT_TRUE(same != nullptr && *same == row) << name << " row " << id;
      return true;
    });
  }
  EXPECT_EQ(indexes, 6u);  // Cloudstone's secondary indexes
  std::string err;
  EXPECT_TRUE(copy.ValidateAllIndexes(&err)) << err;
  EXPECT_TRUE(cluster->Converged());

  // The copy joins the live stream at the master's binlog position: the
  // next write applies on it, with no gap.
  ASSERT_TRUE(cluster->master()
                  ->ExecuteDirect("DELETE FROM events WHERE event_id = 2")
                  .ok());
  sim_.Run();
  SlaveNode* slave = cluster->slave(*added);
  EXPECT_GE(slave->events_applied(), 1);
  EXPECT_EQ(slave->gap_events_detected(), 0);
  EXPECT_TRUE(cluster->FullyReplicated());
  EXPECT_TRUE(cluster->Converged());
}

TEST_F(ReplicationTest, RevivedSlaveCarriesTheMastersCatalog) {
  auto cluster = MakeCluster(2);
  const db::Database& master = cluster->master()->database();
  ASSERT_TRUE(cluster->master()
                  ->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
                  .ok());
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("INSERT INTO t VALUES (1, 2)").ok());
  sim_.Run();
  ASSERT_TRUE(cluster->RetireSlave(1).ok());
  // The catalog changes while slave 1 is detached.
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("CREATE INDEX idx_b ON t (b)").ok());
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("INSERT INTO t VALUES (2, 3)").ok());
  sim_.Run();
  const db::Database& revived = cluster->slave(1)->database();
  ASSERT_TRUE(revived.GetTable("t")->SecondaryIndexes().empty());

  ASSERT_TRUE(cluster->ReviveSlave(1).ok());
  sim_.Run();
  for (const std::string& name : master.TableNames()) {
    const db::Table* to = revived.GetTable(name);
    ASSERT_NE(to, nullptr) << name;
    EXPECT_EQ(to->SecondaryIndexes(), master.GetTable(name)->SecondaryIndexes())
        << name;
  }
  EXPECT_EQ(revived.GetTable("t")->SecondaryIndexes().size(), 1u);
  std::string err;
  EXPECT_TRUE(revived.ValidateAllIndexes(&err)) << err;
  EXPECT_TRUE(cluster->FullyReplicated());
  EXPECT_TRUE(cluster->Converged());
}

TEST_F(ReplicationTest, ConvergedCatchesASlaveMissingAnIndex) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->master()
                  ->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
                  .ok());
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("INSERT INTO t VALUES (1, 2)").ok());
  sim_.Run();
  ASSERT_TRUE(cluster->Converged());
  // An index built on the master outside replication: same rows, different
  // catalog.
  db::Database& master = cluster->master()->database();
  master.set_binlog_suppressed(true);
  ASSERT_TRUE(master.Execute("CREATE INDEX idx_b ON t (b)").ok());
  master.set_binlog_suppressed(false);
  EXPECT_FALSE(cluster->Converged());
}

TEST_F(ReplicationTest, TransactionAppliesAtomicallyOnSlave) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY)").ok());
  auto session = cluster->master()->database().CreateSession();
  ASSERT_TRUE(cluster->master()->database().Execute("BEGIN", session.get()).ok());
  ASSERT_TRUE(cluster->master()
                  ->database()
                  .Execute("INSERT INTO t VALUES (1)", session.get())
                  .ok());
  ASSERT_TRUE(cluster->master()
                  ->database()
                  .Execute("INSERT INTO t VALUES (2)", session.get())
                  .ok());
  ASSERT_TRUE(
      cluster->master()->database().Execute("COMMIT", session.get()).ok());
  sim_.Run();
  EXPECT_TRUE(cluster->Converged());
  // One binlog event carried both statements.
  const db::Binlog& binlog = cluster->master()->database().binlog();
  EXPECT_EQ(binlog.At(binlog.size() - 1).statements.size(), 2u);
}

// ---- Heartbeat & delay monitor -------------------------------------------

class HeartbeatTest : public ReplicationTest {};

TEST_F(HeartbeatTest, HeartbeatsReplicateWithLocalTimestamps) {
  auto cluster = MakeCluster(1);
  HeartbeatOptions options;
  HeartbeatPlugin heartbeat(&sim_, cluster->master(), options);
  ASSERT_TRUE(heartbeat.CreateTable().ok());
  heartbeat.Start();
  sim_.RunUntil(Seconds(10));
  heartbeat.Stop();
  sim_.Run();

  auto master_hb =
      ReadHeartbeats(cluster->master()->database(), options.table);
  auto slave_hb = ReadHeartbeats(cluster->slave(0)->database(), options.table);
  EXPECT_EQ(master_hb.size(), 11u);  // t = 0..10 inclusive
  EXPECT_EQ(slave_hb.size(), 11u);
  // Slave apply timestamps trail master commit timestamps (no clock skew in
  // this fixture): delay = network + apply CPU > 0 for every heartbeat.
  for (const auto& [id, master_ts] : master_hb) {
    ASSERT_TRUE(slave_hb.count(id) > 0);
    EXPECT_GT(slave_hb[id], master_ts) << "heartbeat " << id;
  }
}

TEST_F(HeartbeatTest, DelaysReflectNetworkPlusApply) {
  auto cluster = MakeCluster(1);
  HeartbeatOptions options;
  HeartbeatPlugin heartbeat(&sim_, cluster->master(), options);
  ASSERT_TRUE(heartbeat.CreateTable().ok());
  heartbeat.Start();
  sim_.RunUntil(Seconds(30));
  heartbeat.Stop();
  sim_.Run();
  std::vector<double> delays =
      HeartbeatDelaysMs(cluster->master()->database(),
                        cluster->slave(0)->database(), 1,
                        heartbeat.next_id() - 1, options.table);
  ASSERT_GT(delays.size(), 20u);
  for (double d : delays) {
    // One-way 16ms + apply 4ms (idle slave), plus the master-side insert.
    EXPECT_GT(d, 16.0);
    EXPECT_LT(d, 40.0);
  }
}

TEST_F(HeartbeatTest, RelativeDelayCancelsClockOffset) {
  // Give the slave instance a large fixed clock offset; the relative delay
  // computation must cancel it.
  auto cluster = MakeCluster(1);
  cluster->slave(0)->instance().clock().StepTo(0, Millis(500));

  HeartbeatOptions options;
  HeartbeatPlugin heartbeat(&sim_, cluster->master(), options);
  ASSERT_TRUE(heartbeat.CreateTable().ok());
  heartbeat.Start();
  sim_.RunUntil(Seconds(20));
  int64_t idle_max = heartbeat.next_id() - 1;
  // "Load": occupy the slave CPU with reads so applies queue behind them.
  for (int i = 0; i < 200; ++i) {
    cluster->slave(0)->Submit("SELECT COUNT(*) FROM heartbeat", Millis(50),
                              [](Result<db::ExecResult>) {});
  }
  sim_.RunUntil(Seconds(40));
  heartbeat.Stop();
  sim_.Run();

  std::vector<double> idle =
      HeartbeatDelaysMs(cluster->master()->database(),
                        cluster->slave(0)->database(), 1, idle_max);
  std::vector<double> loaded = HeartbeatDelaysMs(
      cluster->master()->database(), cluster->slave(0)->database(),
      idle_max + 1, heartbeat.next_id() - 1);
  ASSERT_FALSE(idle.empty());
  ASSERT_FALSE(loaded.empty());
  // Raw delays carry the 500ms offset...
  Sample idle_sample;
  idle_sample.AddAll(idle);
  EXPECT_GT(idle_sample.Mean(), 400.0);
  // ...but the relative delay cancels it and reflects pure queueing.
  double relative = AverageRelativeDelayMs(loaded, idle);
  EXPECT_GT(relative, 100.0);    // queueing behind 200 x 50ms reads
  EXPECT_LT(relative, 20000.0);  // and no runaway offset contamination
}

TEST_F(HeartbeatTest, MoreHeartbeatsWithShorterPeriod) {
  auto cluster = MakeCluster(1);
  HeartbeatOptions fast;
  fast.period = Millis(200);
  HeartbeatPlugin heartbeat(&sim_, cluster->master(), fast);
  ASSERT_TRUE(heartbeat.CreateTable().ok());
  heartbeat.Start();
  sim_.RunUntil(Seconds(10));
  heartbeat.Stop();
  sim_.Run();
  EXPECT_EQ(heartbeat.next_id() - 1, 51);  // t=0,0.2,...,10.0
}

TEST_F(HeartbeatTest, CursorReadsOnlyNewerIdsThroughOneIndexRange) {
  auto cluster = MakeCluster(1);
  HeartbeatOptions options;
  HeartbeatPlugin heartbeat(&sim_, cluster->master(), options);
  ASSERT_TRUE(heartbeat.CreateTable().ok());
  heartbeat.Start();
  sim_.RunUntil(Seconds(10));
  heartbeat.Stop();
  sim_.Run();

  db::Database& master = cluster->master()->database();
  std::map<int64_t, int64_t> all = ReadHeartbeats(master, options.table);
  ASSERT_EQ(all.size(), 11u);
  for (int64_t k = -1; k <= 12; ++k) {
    std::map<int64_t, int64_t> expected(all.upper_bound(k), all.end());
    EXPECT_EQ(ReadHeartbeats(master, options.table, k), expected)
        << "after id " << k;
  }

  // The cursor read is a primary-key range scan that visits only the rows
  // it returns, not the whole table.
  auto newer =
      master.Execute("SELECT hb_id, ts FROM heartbeat WHERE hb_id > 7");
  ASSERT_TRUE(newer.ok());
  EXPECT_EQ(newer->plan, "index_range(hb_id)");
  EXPECT_EQ(newer->rows.size(), 4u);
  EXPECT_EQ(newer->rows_examined, 4);

  // A full read and a cursor read bind one template: one miss, then a hit.
  db::Database& slave = cluster->slave(0)->database();
  db::StatementCacheStats before = slave.statement_cache().stats();
  EXPECT_EQ(ReadHeartbeats(slave, options.table).size(), 11u);
  EXPECT_EQ(ReadHeartbeats(slave, options.table, 9).size(), 2u);
  db::StatementCacheStats after = slave.statement_cache().stats();
  EXPECT_EQ(after.misses - before.misses, 1);
  EXPECT_EQ(after.hits - before.hits, 1);
}

TEST(ReconnectOptionsTest, EffectiveAckTimeoutFallsBackToNamedDefault) {
  ReconnectOptions options;
  EXPECT_EQ(options.ack_timeout, ReconnectOptions::kDefaultAckTimeout);
  options.ack_timeout = 0;  // "use the default", not "no timeout"
  EXPECT_EQ(options.effective_ack_timeout(),
            ReconnectOptions::kDefaultAckTimeout);
  options.ack_timeout = Seconds(3);
  EXPECT_EQ(options.effective_ack_timeout(), Seconds(3));
}

TEST_F(HeartbeatTest, DelayMonitorHandlesMissingTables) {
  db::Database a;
  db::Database b;
  EXPECT_TRUE(ReadHeartbeats(a, "heartbeat").empty());
  EXPECT_TRUE(HeartbeatDelaysMs(a, b, 1, 100).empty());
  EXPECT_EQ(AverageRelativeDelayMs({}, {}), 0.0);
}

}  // namespace
}  // namespace clouddb::repl
