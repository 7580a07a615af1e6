#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "cloud/cloud_provider.h"
#include "common/str_util.h"
#include "fault/recovery_observer.h"
#include "repl/failover.h"
#include "repl/replication_cluster.h"
#include "cloud/instance.h"
#include "cloud/placement.h"
#include "common/time_types.h"
#include "db/database.h"
#include "fault/fault_schedule.h"
#include "net/network.h"
#include "repl/master_node.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"

namespace clouddb::fault {
namespace {

using repl::SlaveNode;

/// One deterministic deployment (no jitter, no speed lottery, no clock
/// noise): master + N slaves + a monitor, with a FailoverManager,
/// FaultInjector and RecoveryObserver wired the way a scenario would wire
/// them. A plain struct so tests can build several independent worlds (the
/// determinism test runs two).
struct World {
  World(int slaves, uint64_t seed) {
    cloud::CloudOptions options;
    options.latency_jitter_sigma = 0.0;
    options.cpu_speed_cov = 0.0;
    options.max_initial_clock_offset = 0;
    options.max_clock_drift_ppm = 0.0;
    provider = std::make_unique<cloud::CloudProvider>(&sim, options, seed);
    repl::ClusterConfig config;
    config.num_slaves = slaves;
    cluster = std::make_unique<repl::ReplicationCluster>(provider.get(),
                                                         config);
    monitor = provider->Launch("monitor", cloud::InstanceType::kSmall,
                               cloud::MasterPlacement());
    manager = std::make_unique<repl::FailoverManager>(
        &sim, &provider->network(), monitor->node_id(), cluster.get(),
        repl::FailoverOptions{});
    injector = std::make_unique<FaultInjector>(&sim, provider.get());
    observer = std::make_unique<RecoveryObserver>(&sim, manager.get());
    injector->SetFaultListener([this](const FaultEvent&, bool begin) {
      if (begin) {
        observer->NoteFault();
      } else {
        observer->NoteHeal();
      }
    });
    EXPECT_TRUE(cluster->master()
                    ->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY)")
                    .ok());
    sim.Run();
  }

  void WriteAt(SimTime at, int value) {
    sim.ScheduleAt(at, [this, value] {
      EXPECT_TRUE(
          cluster->master()
              ->ExecuteDirect(StrFormat("INSERT INTO t VALUES (%d)", value))
              .ok());
    });
  }

  void StopAll() {
    manager->Stop();
    observer->Stop();
    for (int i = 0; i < cluster->num_slaves(); ++i) {
      cluster->slave(i)->StopAutoResync();
    }
  }

  sim::Simulation sim;
  std::unique_ptr<cloud::CloudProvider> provider;
  std::unique_ptr<repl::ReplicationCluster> cluster;
  cloud::Instance* monitor = nullptr;
  std::unique_ptr<repl::FailoverManager> manager;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<RecoveryObserver> observer;
};

TEST(FaultInjectorTest, MasterCrashTriggersFailoverAndObserverMeasuresIt) {
  World w(2, 1);
  for (int i = 0; i < 5; ++i) w.WriteAt(Seconds(i + 1), i);
  w.manager->Start();
  w.observer->Start();

  FaultSchedule schedule;
  schedule.Crash(Seconds(10), "master", Seconds(20));
  ASSERT_TRUE(w.injector->Arm(schedule).ok());

  w.sim.RunUntil(Seconds(45));
  w.StopAll();
  w.sim.Run();

  ASSERT_TRUE(w.manager->failover_performed());
  EXPECT_TRUE(w.provider->FindByName("master")->running());  // zombie rebooted
  const RecoveryReport& report = w.observer->report();
  EXPECT_EQ(report.fault_at, Seconds(10));
  EXPECT_EQ(report.healed_at, Seconds(30));
  ASSERT_GE(report.detected_at, report.fault_at);
  ASSERT_GE(report.promoted_at, report.detected_at);
  // Default policy: 1s probe interval, 2s timeout, 3 consecutive failures —
  // detection lands within a handful of seconds.
  EXPECT_LT(report.TimeToDetect(), Seconds(10));
  EXPECT_GE(report.reconverged_at, report.healed_at);
  // All writes replicated before the crash: nothing lost.
  EXPECT_EQ(report.lost_writes, 0);
  EXPECT_TRUE(w.cluster->Converged());
}

TEST(FaultInjectorTest, PartitionedSlaveReconnectsViaBackoff) {
  World w(2, 1);
  w.cluster->slave(0)->StartAutoResync();
  w.cluster->slave(1)->StartAutoResync();
  // Writes land while slave-2 is cut off from the master.
  for (int i = 0; i < 8; ++i) w.WriteAt(Seconds(4) + Seconds(i), i);

  FaultSchedule schedule;
  schedule.Partition(Seconds(3), "slave-2", "master", Seconds(10));
  ASSERT_TRUE(w.injector->Arm(schedule).ok());

  w.sim.RunUntil(Seconds(40));
  w.StopAll();
  w.sim.Run();

  SlaveNode* cut = w.cluster->slave(1);
  // The keepalive noticed the dead link and retried with backoff: more than
  // one request went out before the heal let one through.
  EXPECT_GT(cut->resync_requests_sent(), 1);
  EXPECT_GE(cut->resync_acks_received(), 1);
  EXPECT_EQ(cut->current_backoff(), 0);  // reset on successful reconnect
  EXPECT_FALSE(cut->replication_broken());
  EXPECT_EQ(cut->applied_index(), w.cluster->master()->binlog_size() - 1);
  EXPECT_TRUE(db::Database::ContentsEqual(w.cluster->master()->database(),
                                          cut->database(), {}));
}

TEST(FaultInjectorTest, SameSeedRunsProduceIdenticalReports) {
  auto run_once = [](uint64_t seed) {
    World w(2, seed);
    w.cluster->slave(0)->StartAutoResync();
    w.cluster->slave(1)->StartAutoResync();
    for (int i = 0; i < 12; ++i) w.WriteAt(Seconds(2 + i), i);
    w.manager->Start();
    w.observer->Start();
    FaultSchedule schedule;
    schedule.Partition(Seconds(4), "slave-2", "master", Seconds(6))
        .Crash(Seconds(15), "master", Seconds(15));
    EXPECT_TRUE(w.injector->Arm(schedule).ok());
    w.sim.RunUntil(Seconds(60));
    w.StopAll();
    w.sim.Run();
    return std::make_tuple(w.observer->report(),
                           w.cluster->slave(1)->resync_requests_sent(),
                           w.sim.events_executed());
  };
  auto a = run_once(99);
  auto b = run_once(99);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  // And the episode actually exercised a failover.
  EXPECT_GE(std::get<0>(a).detected_at, 0);
  EXPECT_GE(std::get<0>(a).promoted_at, 0);
}

TEST(FaultInjectorTest, FreezeBacklogsApplyThreadThenThawDrains) {
  World w(1, 1);
  FaultSchedule schedule;
  schedule.Freeze(Seconds(2), "slave-1", Seconds(20));
  ASSERT_TRUE(w.injector->Arm(schedule).ok());
  for (int i = 0; i < 6; ++i) w.WriteAt(Seconds(3) + Seconds(i), i);

  w.sim.RunUntil(Seconds(15));
  // Mid-freeze: events arrived (network unaffected) but the SQL apply
  // thread is stalled on the frozen CPU.
  EXPECT_TRUE(w.cluster->slave(0)->instance().cpu().frozen());
  EXPECT_GT(w.cluster->slave(0)->relay_backlog(), 0u);
  EXPECT_LT(w.cluster->slave(0)->applied_index(),
            w.cluster->master()->binlog_size() - 1);

  w.sim.Run();  // thaw fires at t=22s, then the backlog drains
  EXPECT_FALSE(w.cluster->slave(0)->instance().cpu().frozen());
  EXPECT_EQ(w.cluster->slave(0)->relay_backlog(), 0u);
  EXPECT_EQ(w.cluster->slave(0)->applied_index(),
            w.cluster->master()->binlog_size() - 1);
  EXPECT_TRUE(w.cluster->Converged());
}

TEST(FaultInjectorTest, SlowdownScalesCpuAndHealRestoresIt) {
  World w(1, 1);
  double original = w.cluster->slave(0)->instance().cpu().speed_factor();
  FaultSchedule schedule;
  schedule.Slowdown(Seconds(1), "slave-1", 0.25, Seconds(10));
  ASSERT_TRUE(w.injector->Arm(schedule).ok());

  w.sim.RunUntil(Seconds(5));
  EXPECT_DOUBLE_EQ(w.cluster->slave(0)->instance().cpu().speed_factor(),
                   original * 0.25);
  w.sim.Run();
  EXPECT_DOUBLE_EQ(w.cluster->slave(0)->instance().cpu().speed_factor(),
                   original);
}

TEST(FaultInjectorTest, ClockStepShiftsLocalTime) {
  World w(1, 1);
  FaultSchedule schedule;
  schedule.ClockStep(Seconds(5), "slave-1", Millis(40));
  ASSERT_TRUE(w.injector->Arm(schedule).ok());
  w.sim.Run();
  // Zero drift/offset deployment: local time is sim time plus the step.
  EXPECT_EQ(w.provider->FindByName("slave-1")->LocalNowMicros(),
            w.sim.Now() + Millis(40));
  EXPECT_EQ(w.provider->FindByName("master")->LocalNowMicros(), w.sim.Now());
}

TEST(FaultInjectorTest, PacketLossIsSurvivedWithAutoResync) {
  World w(1, 1);
  w.cluster->slave(0)->StartAutoResync();
  FaultSchedule schedule;
  schedule.PacketLoss(Seconds(1), "master", "slave-1", 0.5, Seconds(20));
  ASSERT_TRUE(w.injector->Arm(schedule).ok());
  for (int i = 0; i < 20; ++i) w.WriteAt(Seconds(2) + Millis(800) * i, i);

  w.sim.RunUntil(Seconds(60));
  w.StopAll();
  w.sim.Run();

  SlaveNode* slave = w.cluster->slave(0);
  // Half the stream vanished; the gap detector noticed and resync repaired.
  EXPECT_GT(w.provider->network().messages_dropped(), 0);
  EXPECT_FALSE(slave->replication_broken());
  EXPECT_EQ(slave->applied_index(), w.cluster->master()->binlog_size() - 1);
  EXPECT_TRUE(w.cluster->Converged());
}

TEST(FaultInjectorTest, LatencySpikeAddsToEveryHopUntilHealed) {
  World w(1, 1);
  const SimDuration spike = Millis(50);
  FaultSchedule schedule;
  schedule.LatencySpike(Seconds(2), "master", "slave-1", spike, Seconds(4));
  ASSERT_TRUE(w.injector->Arm(schedule).ok());
  net::NodeId master = w.cluster->master()->node_id();
  net::NodeId slave = w.cluster->slave(0)->node_id();
  // One ping before, one inside and one after the window. The deployment
  // has no jitter, so each round trip is exact.
  std::vector<SimDuration> rtts;
  for (SimTime at : {Seconds(1), Seconds(3), Seconds(8)}) {
    w.sim.ScheduleAt(at, [&] {
      w.provider->network().Ping(master, slave, [&rtts](SimDuration rtt) {
        rtts.push_back(rtt);
      });
    });
  }
  w.sim.Run();
  ASSERT_EQ(rtts.size(), 3u);
  SimDuration base = rtts[0];
  EXPECT_GT(base, 0);
  EXPECT_EQ(rtts[1], base + 2 * spike);  // the spike delays both directions
  EXPECT_EQ(rtts[2], base);
}

/// The slave-crash scenario at each binlog shipping batch size: 1 ships
/// every event on its own, 8 re-streams the missed range in batches.
class FaultInjectorBatchTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultInjectorBatchTest, SlaveCrashLosesRelayLogButResyncRecovers) {
  World w(2, 1);
  w.cluster->SetBinlogBatchSize(GetParam());
  w.cluster->slave(0)->StartAutoResync();
  w.cluster->slave(1)->StartAutoResync();
  FaultSchedule schedule;
  schedule.Crash(Seconds(5), "slave-2", Seconds(10));
  ASSERT_TRUE(w.injector->Arm(schedule).ok());
  for (int i = 0; i < 10; ++i) w.WriteAt(Seconds(2) + Seconds(i), i);

  w.sim.RunUntil(Seconds(10));
  EXPECT_FALSE(w.cluster->slave(1)->instance().running());
  w.sim.RunUntil(Seconds(45));
  w.StopAll();
  w.sim.Run();

  EXPECT_TRUE(w.cluster->slave(1)->instance().running());
  EXPECT_EQ(w.cluster->slave(1)->instance().crash_count(), 1);
  EXPECT_FALSE(w.cluster->slave(1)->replication_broken());
  EXPECT_TRUE(w.cluster->FullyReplicated());
  EXPECT_TRUE(w.cluster->Converged());
}

INSTANTIATE_TEST_SUITE_P(BinlogBatchSize, FaultInjectorBatchTest,
                         ::testing::Values(1, 8));

TEST(FaultInjectorTest, IsolationHealsAndRejoins) {
  World w(2, 1);
  w.cluster->slave(0)->StartAutoResync();
  w.cluster->slave(1)->StartAutoResync();
  FaultSchedule schedule;
  schedule.Isolate(Seconds(3), "slave-1", Seconds(8));
  ASSERT_TRUE(w.injector->Arm(schedule).ok());
  for (int i = 0; i < 8; ++i) w.WriteAt(Seconds(4) + Seconds(i), i);

  w.sim.RunUntil(Seconds(40));
  w.StopAll();
  w.sim.Run();

  EXPECT_FALSE(w.cluster->slave(0)->replication_broken());
  EXPECT_GT(w.cluster->slave(0)->resync_requests_sent(), 0);
  EXPECT_TRUE(w.cluster->Converged());
}

}  // namespace
}  // namespace clouddb::fault
