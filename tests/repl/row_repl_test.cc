#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_provider.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "repl/replication_cluster.h"
#include "common/result.h"
#include "common/status.h"
#include "db/database.h"
#include "db/table.h"
#include "metrics/metric_registry.h"
#include "sim/simulation.h"
#include "db/binlog.h"
#include "db/value.h"
#include "db/writeset.h"

namespace clouddb::repl {
namespace {

/// One self-contained deployment (own simulation, cloud, cluster) so two
/// runs of the same workload under different replication modes can be
/// compared side by side.
struct Deployment {
  explicit Deployment(int slaves, bool sync = false) {
    options.latency_jitter_sigma = 0.0;
    options.cpu_speed_cov = 0.0;
    options.max_initial_clock_offset = 0;
    options.max_clock_drift_ppm = 0.0;
    provider = std::make_unique<cloud::CloudProvider>(&sim, options, 1);
    ClusterConfig config;
    config.num_slaves = slaves;
    config.synchronous_replication = sync;
    cluster = std::make_unique<ReplicationCluster>(provider.get(), config);
  }

  Result<db::ExecResult> Run(const std::string& sql) {
    return cluster->master()->ExecuteDirect(sql);
  }

  uint64_t SlaveTableHash(int slave, const std::string& table) {
    db::Table* t = cluster->slave(slave)->database().GetTable(table);
    return t == nullptr ? 0 : t->ContentsHash();
  }

  uint64_t MasterTableHash(const std::string& table) {
    db::Table* t = cluster->master()->database().GetTable(table);
    return t == nullptr ? 0 : t->ContentsHash();
  }

  sim::Simulation sim;
  cloud::CloudOptions options;
  std::unique_ptr<cloud::CloudProvider> provider;
  std::unique_ptr<ReplicationCluster> cluster;
};

/// Deterministic function-free workload: inserts of shuffled keys into a
/// keyed table, some with a NULL column, with a CREATE INDEX dropped
/// mid-stream so the run always exercises the DDL fallback inside a
/// row-based stream.
std::vector<std::string> MakeWorkload(uint64_t seed, int steps) {
  std::vector<std::string> sql;
  sql.push_back(
      "CREATE TABLE items (id INT PRIMARY KEY, qty INT, label TEXT)");
  Rng rng(seed);
  std::vector<int64_t> ids;
  for (int64_t id = 1; id <= steps; ++id) ids.push_back(id);
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[static_cast<size_t>(rng.UniformInt(
                              0, static_cast<int64_t>(i) - 1))]);
  }
  for (int i = 0; i < steps; ++i) {
    if (i == steps / 2) {
      sql.push_back("CREATE INDEX idx_items_qty ON items (qty)");
      continue;
    }
    long long id = static_cast<long long>(ids[static_cast<size_t>(i)]);
    std::string qty =
        rng.Bernoulli(0.1)
            ? "NULL"
            : StrFormat("%lld",
                        static_cast<long long>(rng.UniformInt(-50, 50)));
    sql.push_back(StrFormat("INSERT INTO items VALUES (%lld, %s, 'L%lld')",
                            id, qty.c_str(), id % 7));
  }
  return sql;
}

TEST(RowReplTest, RandomizedWorkloadIsBitIdenticalAcrossModes) {
  std::vector<std::string> workload = MakeWorkload(/*seed=*/99, /*steps=*/120);

  Deployment stmt_mode(2);
  Deployment row_mode(2);
  row_mode.cluster->SetRowBasedReplication(true);
  row_mode.cluster->SetBinlogBatchSize(8);

  for (const std::string& sql : workload) {
    ASSERT_TRUE(stmt_mode.Run(sql).ok()) << sql;
    ASSERT_TRUE(row_mode.Run(sql).ok()) << sql;
  }
  stmt_mode.sim.Run();
  row_mode.sim.Run();

  ASSERT_TRUE(stmt_mode.cluster->FullyReplicated());
  ASSERT_TRUE(row_mode.cluster->FullyReplicated());
  EXPECT_TRUE(stmt_mode.cluster->Converged());
  EXPECT_TRUE(row_mode.cluster->Converged());

  // Replica state must be bit-identical: same per-table checksum on every
  // node in both modes (the ablation-toggle contract).
  uint64_t expected = stmt_mode.MasterTableHash("items");
  EXPECT_EQ(row_mode.MasterTableHash("items"), expected);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(stmt_mode.SlaveTableHash(s, "items"), expected);
    EXPECT_EQ(row_mode.SlaveTableHash(s, "items"), expected);
  }

  // The row-mode run actually used the fast path, and the mid-stream DDL
  // actually used the fallback.
  EXPECT_GT(row_mode.cluster->slave(0)->writeset_applies(), 0);
  EXPECT_GT(row_mode.cluster->slave(0)->fallback_applies(), 0);
  EXPECT_EQ(stmt_mode.cluster->slave(0)->writeset_applies(), 0);
  EXPECT_EQ(stmt_mode.cluster->slave(0)->fallback_applies(), 0);

  // Batching shipped group messages on the row cluster only.
  EXPECT_GT(row_mode.cluster->master()->batches_shipped(), 0);
  EXPECT_EQ(stmt_mode.cluster->master()->batches_shipped(), 0);

  // Wire traffic, pinned exactly: the in-memory event format may change,
  // what the network carries and charges for it may not.
  EXPECT_EQ(stmt_mode.provider->network().messages_sent(), 242);
  EXPECT_EQ(stmt_mode.provider->network().bytes_sent(), 17380);
  EXPECT_EQ(stmt_mode.cluster->master()->events_pushed(), 242);
  EXPECT_EQ(row_mode.provider->network().messages_sent(), 32);
  EXPECT_EQ(row_mode.provider->network().bytes_sent(), 29176);
  EXPECT_EQ(row_mode.cluster->master()->events_pushed(), 242);
}

TEST(RowReplTest, FunctionBearingStatementsFallBackAndReplicate) {
  Deployment d(1);
  d.cluster->SetRowBasedReplication(true);
  ASSERT_TRUE(
      d.Run("CREATE TABLE hb (hb_id INT PRIMARY KEY, ts BIGINT)").ok());
  // NOW_MICROS must re-evaluate on each replica (heartbeat semantics), so
  // the statement is never covered by a writeset.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(d.Run(StrFormat(
                     "INSERT INTO hb (hb_id, ts) VALUES (%d, NOW_MICROS())",
                     i))
                    .ok());
  }
  d.sim.Run();
  EXPECT_TRUE(d.cluster->FullyReplicated());
  EXPECT_FALSE(d.cluster->slave(0)->replication_broken());
  EXPECT_EQ(d.cluster->slave(0)->writeset_applies(), 0);
  // 5 uncovered inserts + the CREATE TABLE DDL.
  EXPECT_EQ(d.cluster->slave(0)->fallback_applies(), 6);
  // The slave has all five rows even though none shipped row images.
  auto r = d.cluster->slave(0)->database().Execute("SELECT COUNT(*) FROM hb");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt64(), 5);
}

TEST(RowReplTest, BatchingCutsShippedMessages) {
  Deployment per_event(1);
  Deployment batched(1);
  batched.cluster->SetBinlogBatchSize(64);

  ASSERT_TRUE(per_event.Run("CREATE TABLE t (a INT PRIMARY KEY)").ok());
  ASSERT_TRUE(batched.Run("CREATE TABLE t (a INT PRIMARY KEY)").ok());
  for (int i = 0; i < 63; ++i) {
    std::string sql = StrFormat("INSERT INTO t VALUES (%d)", i);
    ASSERT_TRUE(per_event.Run(sql).ok());
    ASSERT_TRUE(batched.Run(sql).ok());
  }
  per_event.sim.Run();
  batched.sim.Run();

  ASSERT_TRUE(per_event.cluster->FullyReplicated());
  ASSERT_TRUE(batched.cluster->FullyReplicated());
  EXPECT_TRUE(batched.cluster->Converged());

  // 64 events: 64 per-event messages vs one full group message.
  EXPECT_EQ(per_event.cluster->master()->messages_sent(), 64);
  EXPECT_EQ(batched.cluster->master()->messages_sent(), 1);
  EXPECT_EQ(batched.cluster->master()->batches_shipped(), 1);
  EXPECT_GE(per_event.cluster->master()->messages_sent(),
            8 * batched.cluster->master()->messages_sent());
}

TEST(RowReplTest, FlushTimerShipsPartialBatches) {
  Deployment d(1);
  d.cluster->SetBinlogBatchSize(64);
  ASSERT_TRUE(d.Run("CREATE TABLE t (a INT PRIMARY KEY)").ok());
  ASSERT_TRUE(d.Run("INSERT INTO t VALUES (1)").ok());
  // Two events buffered, far below the batch size: only the flush interval
  // gets them onto the wire.
  d.sim.Run();
  EXPECT_TRUE(d.cluster->FullyReplicated());
  EXPECT_EQ(d.cluster->master()->batches_shipped(), 1);
  EXPECT_EQ(d.cluster->slave(0)->events_applied(), 2);
}

TEST(RowReplTest, GroupCommitAckReleasesAllSyncWaiters) {
  Deployment d(1, /*sync=*/true);
  d.cluster->SetBinlogBatchSize(4);
  ASSERT_TRUE(d.Run("CREATE TABLE t (a INT PRIMARY KEY)").ok());
  d.sim.Run();

  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    d.cluster->master()->Submit(
        StrFormat("INSERT INTO t VALUES (%d)", i), /*cpu_cost=*/-1,
        [&completed](Result<db::ExecResult> r) {
          ASSERT_TRUE(r.ok());
          ++completed;
        });
  }
  d.sim.Run();
  // Every synchronous write completed even though the slave sent only
  // batch-end acks (one cumulative ack covers the whole batch).
  EXPECT_EQ(completed, 8);
  EXPECT_TRUE(d.cluster->FullyReplicated());
}

TEST(RowReplTest, LegacyModeIsByteIdenticalOnTheWire) {
  // batch_size <= 1 and row_based_repl off must reproduce the seed path
  // exactly: same message count, same per-event wire size.
  Deployment d(1);
  ASSERT_TRUE(d.Run("CREATE TABLE t (a INT PRIMARY KEY)").ok());
  ASSERT_TRUE(d.Run("INSERT INTO t VALUES (42)").ok());
  d.sim.Run();
  EXPECT_EQ(d.cluster->master()->messages_sent(), 2);
  EXPECT_EQ(d.cluster->master()->batches_shipped(), 0);
  const db::BinlogEvent& event =
      d.cluster->master()->database().binlog().At(1);
  EXPECT_FALSE(event.writeset.has_value());
  EXPECT_EQ(db::EventWireSize(event),
            32 + static_cast<int64_t>(event.statement.size()));
}

TEST(RowReplTest, WritesetEventWireSizeIsPinned) {
  // What the network charges for a row-based event: 32 + the statement text;
  // 5 for its writeset; for a covered one's row op 9 + the table name (the 4
  // of it an empty before image's count); and for the inserted row 4, plus 1
  // per NULL, 9 per integer, 5 + length per string.
  db::BinlogEvent items;
  items.statement = "INSERT INTO items VALUES (1, -25, 'abc', NULL)";
  items.writeset = db::StatementWriteset{std::make_shared<const db::RowOp>(
      db::RowOp{"items",
                {db::Value(int64_t{1}), db::Value(int64_t{-25}),
                 db::Value("abc"), db::Value::Null()}})};
  ASSERT_EQ(items.statement.size(), 46u);
  const int64_t items_op = (9 + 5) + (4 + 9 + 9 + (5 + 3) + 1);  // 45
  EXPECT_EQ(db::EventWireSize(items), 32 + 46 + 5 + items_op);   // 128

  db::BinlogEvent t;
  t.statement = "INSERT INTO t VALUES (42)";
  t.writeset = db::StatementWriteset{std::make_shared<const db::RowOp>(
      db::RowOp{"t", {db::Value(int64_t{42})}})};
  ASSERT_EQ(t.statement.size(), 25u);
  EXPECT_EQ(db::EventWireSize(t), 32 + 25 + 5 + (9 + 1) + (4 + 9));  // 85

  // DDL is never covered: its writeset ships with no row.
  db::BinlogEvent ddl;
  ddl.statement = "CREATE TABLE x (a INT PRIMARY KEY)";
  ddl.writeset = db::StatementWriteset{};
  ASSERT_EQ(ddl.statement.size(), 34u);
  EXPECT_EQ(db::EventWireSize(ddl), 32 + 34 + 5);  // 71
}

// The writeset a master captures for an INSERT is the row as stored, with
// the columns a column list leaves out NULL, and the event's wire charge
// follows from it.
TEST(RowReplTest, CapturedWritesetIsTheStoredRow) {
  Deployment d(1);
  d.cluster->SetRowBasedReplication(true);
  ASSERT_TRUE(d.Run("CREATE TABLE m (id INT PRIMARY KEY, v BIGINT, s TEXT)")
                  .ok());
  const std::string sql = "INSERT INTO m (v, id) VALUES (3, 7)";
  ASSERT_TRUE(d.Run(sql).ok());
  const db::Binlog& binlog = d.cluster->master()->database().binlog();
  const db::BinlogEvent& event = binlog.At(binlog.size() - 1);
  ASSERT_TRUE(event.writeset.has_value());
  ASSERT_NE(event.writeset->row, nullptr);
  const db::RowOp& op = *event.writeset->row;
  EXPECT_EQ(op.table, "m");
  ASSERT_EQ(op.after.size(), 3u);
  EXPECT_EQ(op.after[1], db::Value(int64_t{3}));
  EXPECT_TRUE(op.after[2].is_null());
  EXPECT_EQ(db::EventWireSize(event),
            32 + static_cast<int64_t>(sql.size()) + 5 + (9 + 1) +
                (4 + 9 + 9 + 1));
  d.sim.Run();
  EXPECT_TRUE(d.cluster->Converged());
  EXPECT_EQ(d.cluster->slave(0)->writeset_applies(), 1);
  EXPECT_EQ(*d.cluster->slave(0)->database().GetTable("m")->Get(1), op.after);
}

constexpr int kPreloadedItems = 3;
constexpr int kTrafficItems = 6;

/// Pre-loads `d` through LoadDirect (kPreloadedItems rows of `items`, an
/// empty `heartbeat` table), then replicates kTrafficItems covered INSERTs
/// into `items`, each followed by a heartbeat INSERT of NOW_MICROS(), and
/// drains. Converged() skips the heartbeat table, whose values differ per
/// replica.
void LoadAndReplicate(Deployment* d) {
  ASSERT_TRUE(d->cluster
                  ->LoadDirect([](const auto& execute) -> Status {
                    CLOUDDB_RETURN_IF_ERROR(
                        execute("CREATE TABLE items (id INT PRIMARY KEY, "
                                "qty INT, label TEXT)"));
                    CLOUDDB_RETURN_IF_ERROR(
                        execute("CREATE TABLE heartbeat (hb_id INT PRIMARY "
                                "KEY, ts BIGINT)"));
                    for (int id = 1; id <= kPreloadedItems; ++id) {
                      CLOUDDB_RETURN_IF_ERROR(execute(StrFormat(
                          "INSERT INTO items VALUES (%d, %d, 'pre')", id,
                          id)));
                    }
                    return Status::Ok();
                  })
                  .ok());
  for (int i = 0; i < kTrafficItems; ++i) {
    ASSERT_TRUE(d->Run(StrFormat("INSERT INTO items VALUES (%d, %d, 'L%d')",
                                 100 + i, i, i))
                    .ok());
    ASSERT_TRUE(d->Run(StrFormat("INSERT INTO heartbeat (hb_id, ts) VALUES "
                                 "(%d, NOW_MICROS())",
                                 i))
                    .ok());
  }
  d->sim.Run();
  ASSERT_TRUE(d->cluster->FullyReplicated());
  ASSERT_TRUE(d->cluster->Converged());
}

// One copy of each row for the tier: in a drained row-based tier, each
// slave's row for a covered INSERT is the master's object, the after image
// the INSERT's binlog event carries, and so is each pre-loaded row, which
// LoadDirect copies from the master. A heartbeat row (NOW_MICROS(), not
// covered) is evaluated and built on each replica.
TEST(RowReplTest, SlavesHoldTheMastersRowImages) {
  Deployment d(2);
  d.cluster->SetRowBasedReplication(true);
  ASSERT_NO_FATAL_FAILURE(LoadAndReplicate(&d));
  const db::Database& master = d.cluster->master()->database();
  const db::Table* items = master.GetTable("items");
  const db::Table* heartbeat = master.GetTable("heartbeat");
  ASSERT_EQ(items->num_rows(),
            static_cast<size_t>(kPreloadedItems + kTrafficItems));
  ASSERT_EQ(heartbeat->num_rows(), static_cast<size_t>(kTrafficItems));

  std::vector<const db::Row*> images;
  const db::Binlog& binlog = master.binlog();
  for (int64_t i = 0; i < binlog.size(); ++i) {
    const auto& writeset = binlog.At(i).writeset;
    ASSERT_TRUE(writeset.has_value());
    if (writeset->row != nullptr) images.push_back(&writeset->row->after);
  }
  ASSERT_EQ(images.size(), static_cast<size_t>(kTrafficItems));
  for (int k = 0; k < kTrafficItems; ++k) {
    EXPECT_EQ(items->Get(kPreloadedItems + k + 1),
              images[static_cast<size_t>(k)]);
  }

  for (int s = 0; s < 2; ++s) {
    SCOPED_TRACE(StrFormat("slave %d", s));
    const db::Database& slave = d.cluster->slave(s)->database();
    const db::Table* slave_items = slave.GetTable("items");
    const db::Table* slave_heartbeat = slave.GetTable("heartbeat");
    ASSERT_EQ(slave_items->num_rows(), items->num_rows());
    for (db::RowId id = 1; id <= static_cast<db::RowId>(items->num_rows());
         ++id) {
      EXPECT_EQ(slave_items->Get(id), items->Get(id)) << "items row " << id;
    }
    ASSERT_EQ(slave_heartbeat->num_rows(), heartbeat->num_rows());
    for (db::RowId id = 1;
         id <= static_cast<db::RowId>(heartbeat->num_rows()); ++id) {
      ASSERT_NE(slave_heartbeat->Get(id), nullptr);
      EXPECT_NE(slave_heartbeat->Get(id), heartbeat->Get(id))
          << "heartbeat row " << id;
    }
    EXPECT_EQ(d.cluster->slave(s)->writeset_applies(), kTrafficItems);
  }
}

// A statement-based slave executes each write itself, so its traffic rows
// equal the master's but are objects of its own. The pre-loaded rows are
// still the master's: LoadDirect copies them.
TEST(RowReplTest, StatementSlavesBuildTheirOwnRows) {
  Deployment d(2);
  ASSERT_NO_FATAL_FAILURE(LoadAndReplicate(&d));
  const db::Table* items = d.cluster->master()->database().GetTable("items");
  const db::Table* heartbeat =
      d.cluster->master()->database().GetTable("heartbeat");
  for (int s = 0; s < 2; ++s) {
    SCOPED_TRACE(StrFormat("slave %d", s));
    const db::Database& slave = d.cluster->slave(s)->database();
    const db::Table* slave_items = slave.GetTable("items");
    ASSERT_EQ(slave_items->num_rows(), items->num_rows());
    for (db::RowId id = 1; id <= static_cast<db::RowId>(items->num_rows());
         ++id) {
      const db::Row* row = slave_items->Get(id);
      ASSERT_NE(row, nullptr);
      EXPECT_EQ(*row, *items->Get(id)) << "items row " << id;
      if (id <= kPreloadedItems) {
        EXPECT_EQ(row, items->Get(id)) << "pre-loaded row " << id;
      } else {
        EXPECT_NE(row, items->Get(id)) << "traffic row " << id;
      }
    }
    const db::Table* slave_heartbeat = slave.GetTable("heartbeat");
    ASSERT_EQ(slave_heartbeat->num_rows(), heartbeat->num_rows());
    for (db::RowId id = 1;
         id <= static_cast<db::RowId>(heartbeat->num_rows()); ++id) {
      EXPECT_NE(slave_heartbeat->Get(id), heartbeat->Get(id))
          << "heartbeat row " << id;
    }
  }
}

TEST(RowReplTest, ReplicationMetricsAppearInSnapshots) {
  Deployment d(1);
  d.cluster->SetRowBasedReplication(true);
  d.cluster->SetBinlogBatchSize(4);
  ASSERT_TRUE(d.Run("CREATE TABLE t (a INT PRIMARY KEY)").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(d.Run(StrFormat("INSERT INTO t VALUES (%d)", i)).ok());
  }
  d.sim.Run();

  auto value_of = [](const std::vector<metrics::MetricSnapshot>& snap,
                     const std::string& name) -> double {
    for (const auto& m : snap) {
      if (m.name == name) return m.value;
    }
    ADD_FAILURE() << "metric '" << name << "' not registered";
    return -1.0;
  };
  auto master_snap = d.cluster->master()->metrics().Snapshot();
  EXPECT_GT(value_of(master_snap, "repl.binlog.batches"), 0.0);
  EXPECT_GT(value_of(master_snap, "repl.binlog.events_per_batch"), 0.0);
  auto slave_snap = d.cluster->slave(0)->metrics().Snapshot();
  EXPECT_GT(value_of(slave_snap, "repl.apply.writeset"), 0.0);
  // CREATE TABLE is DDL inside a row-based stream: the fallback fired.
  EXPECT_GT(value_of(slave_snap, "repl.apply.fallback"), 0.0);
}

}  // namespace
}  // namespace clouddb::repl
