#include "repl/failover.h"

#include <gtest/gtest.h>

#include "client/rw_split_proxy.h"
#include "cloud/cloud_provider.h"
#include "common/str_util.h"
#include "repl/replication_cluster.h"
#include "cloud/instance.h"
#include "cloud/placement.h"
#include "common/result.h"
#include "common/status.h"
#include "common/time_types.h"
#include "db/database.h"
#include "db/table.h"
#include "db/value.h"
#include "repl/master_node.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"

namespace clouddb::repl {
namespace {

class FailoverTest : public ::testing::Test {
 protected:
  FailoverTest() {
    options_.latency_jitter_sigma = 0.0;
    options_.cpu_speed_cov = 0.0;
    options_.max_initial_clock_offset = 0;
    options_.max_clock_drift_ppm = 0.0;
  }

  void Deploy(int slaves) {
    provider_ = std::make_unique<cloud::CloudProvider>(&sim_, options_, 1);
    ClusterConfig config;
    config.num_slaves = slaves;
    cluster_ = std::make_unique<ReplicationCluster>(provider_.get(), config);
    monitor_ = provider_->Launch("monitor", cloud::InstanceType::kSmall,
                                 cloud::MasterPlacement());
    manager_ = std::make_unique<FailoverManager>(
        &sim_, &provider_->network(), monitor_->node_id(), cluster_.get(),
        FailoverOptions{});
    ASSERT_TRUE(cluster_->master()
                    ->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY)")
                    .ok());
    sim_.Run();
  }

  sim::Simulation sim_;
  cloud::CloudOptions options_;
  std::unique_ptr<cloud::CloudProvider> provider_;
  std::unique_ptr<ReplicationCluster> cluster_;
  cloud::Instance* monitor_ = nullptr;
  std::unique_ptr<FailoverManager> manager_;
};

TEST_F(FailoverTest, HealthyMasterNeverTrips) {
  Deploy(2);
  MasterNode* original = cluster_->master();
  manager_->Start();
  sim_.RunUntil(Minutes(2));
  manager_->Stop();
  sim_.Run();
  EXPECT_FALSE(manager_->failover_performed());
  EXPECT_GT(manager_->probes_sent(), 100);
  EXPECT_EQ(manager_->probes_failed(), 0);
  EXPECT_EQ(cluster_->master(), original);
}

TEST_F(FailoverTest, OfflineNodeRefusesQueries) {
  Deploy(1);
  cluster_->master()->set_online(false);
  Status seen;
  cluster_->master()->Submit("SELECT COUNT(*) FROM t", Millis(1),
                             [&](Result<db::ExecResult> r) {
                               seen = r.status();
                             });
  sim_.Run();
  EXPECT_TRUE(seen.IsUnavailable());
}

TEST_F(FailoverTest, DetectsCrashAndPromotes) {
  Deploy(3);
  // Commit some writes and let them replicate.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster_->master()
                    ->ExecuteDirect(StrFormat("INSERT INTO t VALUES (%d)", i))
                    .ok());
  }
  sim_.Run();
  manager_->Start();
  sim_.RunUntil(Seconds(5));
  // Crash the master.
  MasterNode* old_master = cluster_->master();
  old_master->set_online(false);
  sim_.RunUntil(Seconds(30));
  manager_->Stop();
  sim_.Run();

  ASSERT_TRUE(manager_->failover_performed());
  MasterNode* new_master = cluster_->master();
  ASSERT_NE(new_master, old_master);
  // The promoted node serves the replicated data.
  auto count = new_master->database().Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt64(), 10);
  // No writes were in flight: nothing lost.
  EXPECT_FALSE(manager_->lost_writes_possible());
  // Two survivors re-attached.
  EXPECT_EQ(cluster_->num_active_slaves(), 2);
}

TEST_F(FailoverTest, WritesReplicateAfterFailover) {
  Deploy(3);
  manager_->Start();
  sim_.RunUntil(Seconds(2));
  cluster_->master()->set_online(false);
  sim_.RunUntil(Seconds(30));
  ASSERT_TRUE(manager_->failover_performed());
  MasterNode* new_master = cluster_->master();

  for (int i = 0; i < 5; ++i) {
    new_master->Submit(StrFormat("INSERT INTO t VALUES (%d)", 100 + i),
                       Millis(5), [](Result<db::ExecResult> r) {
                         ASSERT_TRUE(r.ok());
                       });
  }
  manager_->Stop();
  sim_.Run();
  auto r = new_master->database().Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt64(), 5);
  EXPECT_EQ(cluster_->num_active_slaves(), 2);
  EXPECT_TRUE(cluster_->Converged());
}

TEST_F(FailoverTest, ElectsMostUpToDateSlave) {
  Deploy(2);
  // Slave 1 lags: take it offline during the writes, then bring it back.
  cluster_->slave(1)->set_online(false);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster_->master()
                    ->ExecuteDirect(StrFormat("INSERT INTO t VALUES (%d)", i))
                    .ok());
  }
  sim_.Run();
  cluster_->slave(1)->set_online(true);  // back, but missing 6 events
  EXPECT_GT(cluster_->slave(0)->applied_index(),
            cluster_->slave(1)->applied_index());

  manager_->Start();
  cluster_->master()->set_online(false);
  sim_.RunUntil(Seconds(30));
  manager_->Stop();
  sim_.Run();
  ASSERT_TRUE(manager_->failover_performed());
  EXPECT_EQ(manager_->promoted_slave(), cluster_->slave(0));
  // The lagging slave was resynced from the winner.
  EXPECT_TRUE(db::Database::ContentsEqual(cluster_->master()->database(),
                                          cluster_->slave(1)->database()));
}

TEST_F(FailoverTest, DetectsPossibleWriteLoss) {
  Deploy(1);
  manager_->Start();
  sim_.RunUntil(Seconds(2));
  // Commit on the master while the slave is unreachable (network partition),
  // then crash the master: the committed event never lands anywhere.
  cluster_->slave(0)->set_online(false);
  ASSERT_TRUE(
      cluster_->master()->ExecuteDirect("INSERT INTO t VALUES (42)").ok());
  cluster_->master()->set_online(false);
  sim_.RunUntil(Seconds(5));
  cluster_->slave(0)->set_online(true);  // partition heals, too late
  sim_.RunUntil(Seconds(30));
  manager_->Stop();
  sim_.Run();
  ASSERT_TRUE(manager_->failover_performed());
  // §II: "once the updated replica goes offline before duplicating data,
  // data loss may occur."
  EXPECT_TRUE(manager_->lost_writes_possible());
  auto r = cluster_->master()->database().Execute("SELECT COUNT(*) FROM t");
  EXPECT_EQ(r->rows[0][0].AsInt64(), 0);
}

TEST_F(FailoverTest, ProxyRepointsAfterFailover) {
  Deploy(2);
  cloud::Instance* app = provider_->Launch("app", cloud::InstanceType::kLarge,
                                           cloud::MasterPlacement());
  client::ReadWriteSplitProxy proxy(
      &sim_, &provider_->network(), app->node_id(), cluster_->master(),
      {cluster_->slave(0), cluster_->slave(1)}, client::ProxyOptions{});
  manager_->AddFailoverListener(
      [&](MasterNode* new_master) { proxy.ReplaceMaster(new_master); });
  manager_->Start();
  sim_.RunUntil(Seconds(2));
  cluster_->master()->set_online(false);
  // A write during the outage fails with Unavailable.
  Status during_outage;
  proxy.Execute("INSERT INTO t VALUES (1)", Millis(5),
                [&](Result<db::ExecResult> r) { during_outage = r.status(); });
  sim_.RunUntil(Seconds(30));
  EXPECT_TRUE(during_outage.IsUnavailable());
  ASSERT_TRUE(manager_->failover_performed());
  // Writes and reads work again through the repointed proxy.
  int ok_count = 0;
  proxy.Execute("INSERT INTO t VALUES (2)", Millis(5),
                [&](Result<db::ExecResult> r) { ok_count += r.ok(); });
  proxy.Execute("SELECT COUNT(*) FROM t", Millis(5),
                [&](Result<db::ExecResult> r) { ok_count += r.ok(); });
  manager_->Stop();
  sim_.Run();
  EXPECT_EQ(ok_count, 2);
  // The promoted node left the read rotation; the survivor serves reads.
  int promoted = manager_->promoted_slave() == cluster_->slave(0) ? 0 : 1;
  EXPECT_FALSE(proxy.IsSlaveActive(promoted));
  EXPECT_TRUE(proxy.IsSlaveActive(1 - promoted));
}

TEST_F(FailoverTest, CountsLostWritesWhenLaggingSlaveIsPromoted) {
  Deploy(1);
  manager_->Start();
  sim_.RunUntil(Seconds(2));
  // Three writes commit while the only slave is unreachable; then the
  // master dies. Whoever wins the election is missing all three.
  cluster_->slave(0)->set_online(false);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster_->master()
                    ->ExecuteDirect(StrFormat("INSERT INTO t VALUES (%d)", i))
                    .ok());
  }
  cluster_->master()->set_online(false);
  sim_.RunUntil(Seconds(5));
  cluster_->slave(0)->set_online(true);
  sim_.RunUntil(Seconds(30));
  manager_->Stop();
  sim_.Run();

  ASSERT_TRUE(manager_->failover_performed());
  EXPECT_TRUE(manager_->lost_writes_possible());
  EXPECT_EQ(manager_->lost_writes_count(), 3);
}

TEST_F(FailoverTest, SurvivorResyncRebuildsSecondaryIndexes) {
  Deploy(2);
  // A second table with a secondary index, replicated everywhere, plus a
  // backlog that slave 2 misses (offline during the writes).
  ASSERT_TRUE(cluster_->master()
                  ->ExecuteDirect(
                      "CREATE TABLE u (id INT PRIMARY KEY, tag TEXT)")
                  .ok());
  ASSERT_TRUE(cluster_->master()
                  ->ExecuteDirect("CREATE INDEX idx_tag ON u (tag)")
                  .ok());
  sim_.Run();
  cluster_->slave(1)->set_online(false);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        cluster_->master()
            ->ExecuteDirect(StrFormat(
                "INSERT INTO u VALUES (%d, 'tag-%d')", i, i % 2))
            .ok());
  }
  sim_.Run();
  cluster_->slave(1)->set_online(true);  // back, lagging 4 events

  manager_->Start();
  cluster_->master()->set_online(false);
  sim_.RunUntil(Seconds(30));
  manager_->Stop();
  sim_.Run();

  ASSERT_TRUE(manager_->failover_performed());
  EXPECT_EQ(manager_->promoted_slave(), cluster_->slave(0));
  // The lagging survivor was re-cloned from the winner: identical contents
  // AND a working secondary index (CopyTablesFrom copies indexes, not just
  // rows).
  ASSERT_EQ(cluster_->num_active_slaves(), 1);
  SlaveNode* survivor = cluster_->slave(1);
  EXPECT_TRUE(db::Database::ContentsEqual(cluster_->master()->database(),
                                          survivor->database()));
  const db::Table* u = survivor->database().GetTable("u");
  ASSERT_NE(u, nullptr);
  auto tag_col = u->schema().ColumnIndex("tag");
  ASSERT_TRUE(tag_col.ok());
  EXPECT_TRUE(u->HasIndexOn(*tag_col));
  std::string err;
  EXPECT_TRUE(survivor->database().ValidateAllIndexes(&err)) << err;
  // Writes through the promoted master keep replicating to the survivor.
  ASSERT_TRUE(cluster_->master()
                  ->ExecuteDirect("INSERT INTO u VALUES (100, 'tag-x')")
                  .ok());
  sim_.Run();
  EXPECT_TRUE(db::Database::ContentsEqual(cluster_->master()->database(),
                                          survivor->database()));
}

TEST_F(FailoverTest, ClusterFollowsThePromotion) {
  Deploy(2);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster_->master()
                    ->ExecuteDirect(StrFormat("INSERT INTO t VALUES (%d)", i))
                    .ok());
  }
  sim_.Run();
  MasterNode* old_master = cluster_->master();
  manager_->Start();
  old_master->set_online(false);
  sim_.RunUntil(Seconds(30));
  manager_->Stop();
  sim_.Run();

  ASSERT_TRUE(manager_->failover_performed());
  // The cluster, not a private copy in the manager, names the new master.
  EXPECT_NE(cluster_->master(), old_master);
  EXPECT_EQ(&cluster_->master()->instance(),
            &manager_->promoted_slave()->instance());
  EXPECT_EQ(cluster_->num_active_slaves(), 1);
  EXPECT_TRUE(cluster_->FullyReplicated());
  EXPECT_TRUE(cluster_->Converged());

  // Scale-out after the failover joins the new master's timeline.
  Result<int> added = cluster_->AddSlave();
  ASSERT_TRUE(added.ok());
  ASSERT_TRUE(
      cluster_->master()->ExecuteDirect("INSERT INTO t VALUES (100)").ok());
  sim_.Run();
  SlaveNode* fresh = cluster_->slave(*added);
  EXPECT_GE(fresh->events_applied(), 1);
  EXPECT_EQ(fresh->gap_events_detected(), 0);
  EXPECT_EQ(cluster_->num_active_slaves(), 2);
  EXPECT_TRUE(cluster_->FullyReplicated());
  EXPECT_TRUE(cluster_->Converged());
}

TEST_F(FailoverTest, PromotedMasterKeepsTheReplicationMode) {
  Deploy(2);
  cluster_->SetRowBasedReplication(true);
  cluster_->SetBinlogBatchSize(8);
  cluster_->master()->SetSynchronousReplication(true);
  manager_->Start();
  cluster_->master()->set_online(false);
  sim_.RunUntil(Seconds(30));
  ASSERT_TRUE(manager_->failover_performed());

  MasterNode* promoted = cluster_->master();
  EXPECT_TRUE(promoted->database().row_based_repl_enabled());
  EXPECT_EQ(promoted->ship_options().batch_size, 8);
  EXPECT_TRUE(promoted->synchronous());
  // A synchronous write on the new master completes once the survivor
  // acknowledges it, and arrives as a row-image apply.
  Status written = Status::Internal("no response");
  promoted->Submit("INSERT INTO t VALUES (7)", Millis(5),
                   [&](Result<db::ExecResult> r) { written = r.status(); });
  manager_->Stop();
  sim_.Run();
  EXPECT_TRUE(written.ok()) << written.ToString();
  EXPECT_EQ(cluster_->num_active_slaves(), 1);
  EXPECT_EQ(cluster_->slave(1)->writeset_applies(), 1);
  EXPECT_TRUE(cluster_->Converged());
}

// The winner of a promotion may still have an apply job queued on its CPU
// (the failover manager elects by applied index, so relay backlog does not
// disqualify a slave). The database that job would apply to now belongs to
// the new master: the job is dropped, whether it carries statements to
// re-execute or row images to apply through a session.
TEST_F(FailoverTest, PromotionDropsTheWinnersQueuedApply) {
  for (bool row_based : {false, true}) {
    SCOPED_TRACE(row_based ? "row-based" : "statement-based");
    sim::Simulation sim;
    cloud::CloudProvider provider(&sim, options_, 1);
    ClusterConfig config;
    config.num_slaves = 2;
    ReplicationCluster cluster(&provider, config);
    cluster.SetRowBasedReplication(row_based);
    ASSERT_TRUE(cluster
                    .ExecuteEverywhereDirect(
                        "CREATE TABLE t (a INT PRIMARY KEY)")
                    .ok());
    SlaveNode* winner = cluster.slave(0);
    // A long read holds the winner's CPU, so the INSERT's apply job queues
    // behind it.
    winner->Submit("SELECT COUNT(*) FROM t", Seconds(5),
                   [](const Result<db::ExecResult>&) {});
    ASSERT_TRUE(
        cluster.master()->ExecuteDirect("INSERT INTO t VALUES (1)").ok());
    sim.RunUntil(Seconds(1));
    ASSERT_EQ(winner->relay_backlog(), 1u);

    ASSERT_TRUE(cluster.PromoteSlave(0).ok());
    sim.Run();
    // The read finds the node offline; the apply job never runs.
    EXPECT_EQ(winner->queries_failed(), 1);
    EXPECT_EQ(winner->events_applied(), 0);
    EXPECT_FALSE(winner->replication_broken());
    EXPECT_TRUE(cluster.Converged());
  }
}

TEST_F(FailoverTest, CopyTablesFromCopiesEverything) {
  db::Database source;
  ASSERT_TRUE(source
                  .Execute("CREATE TABLE a (id INT PRIMARY KEY, v TEXT, "
                           "d BIGINT)")
                  .ok());
  ASSERT_TRUE(source.Execute("CREATE INDEX idx_v ON a (v)").ok());
  ASSERT_TRUE(source.Execute("INSERT INTO a VALUES (1, 'x', -15)").ok());
  ASSERT_TRUE(source.Execute("INSERT INTO a VALUES (2, NULL, NULL)").ok());
  ASSERT_TRUE(source.Execute("INSERT INTO a VALUES (3, 'y', 25)").ok());
  // Refused: uses up no RowId.
  ASSERT_FALSE(source.Execute("INSERT INTO a VALUES (1, 'dup', 5)").ok());
  db::Database target;
  ASSERT_TRUE(target.Execute("CREATE TABLE junk (z INT)").ok());
  ASSERT_TRUE(target.Execute("INSERT INTO junk VALUES (1)").ok());
  target.CopyTablesFrom(source);
  EXPECT_TRUE(db::Database::ContentsEqual(source, target));
  EXPECT_EQ(target.GetTable("junk"), nullptr);
  // Rows keep their RowIds.
  const db::Table* a = target.GetTable("a");
  ASSERT_NE(a->Get(1), nullptr);
  EXPECT_EQ((*a->Get(1))[1].AsString(), "x");
  EXPECT_TRUE((*a->Get(2))[1].is_null());
  ASSERT_NE(a->Get(3), nullptr);
  EXPECT_EQ((*a->Get(3))[1].AsString(), "y");
  // Secondary indexes copied.
  EXPECT_EQ(a->SecondaryIndexes(), source.GetTable("a")->SecondaryIndexes());
  std::string err;
  EXPECT_TRUE(target.ValidateAllIndexes(&err)) << err;
  // New rows continue the source's RowId sequence.
  ASSERT_TRUE(target.Execute("INSERT INTO a VALUES (4, 'z', 5)").ok());
  ASSERT_NE(a->Get(4), nullptr);
  EXPECT_EQ((*a->Get(4))[0], db::Value(int64_t{4}));
  EXPECT_EQ(a->Get(5), nullptr);
}

}  // namespace
}  // namespace clouddb::repl
