// FreshnessTracker tests: observed staleness measured from the heartbeat
// table of a real replicating cluster (no synthetic probe here — this is
// the sensor end of the control loop).

#include "control/freshness_tracker.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>

#include "cloud/cloud_provider.h"
#include "common/str_util.h"
#include "common/time_types.h"
#include "repl/delay_monitor.h"
#include "repl/heartbeat.h"
#include "repl/replication_cluster.h"
#include "sim/simulation.h"

namespace clouddb::control {
namespace {

class FreshnessTrackerTest : public ::testing::Test {
 protected:
  FreshnessTrackerTest() {
    cloud_options_.latency_jitter_sigma = 0.0;
    cloud_options_.cpu_speed_cov = 0.0;
    cloud_options_.max_initial_clock_offset = 0;
    cloud_options_.max_clock_drift_ppm = 0.0;
  }

  void Deploy(int slaves) {
    provider_ = std::make_unique<cloud::CloudProvider>(&sim_, cloud_options_,
                                                       1);
    repl::ClusterConfig config;
    config.num_slaves = slaves;
    cluster_ =
        std::make_unique<repl::ReplicationCluster>(provider_.get(), config);
    repl::HeartbeatOptions heartbeat_options;
    heartbeat_options.period = Millis(100);
    heartbeat_ = std::make_unique<repl::HeartbeatPlugin>(
        &sim_, cluster_->master(), heartbeat_options);
    ASSERT_TRUE(heartbeat_->CreateTable().ok());
    heartbeat_->Start();
    FreshnessTrackerOptions tracker_options;
    tracker_options.poll_period = Millis(100);
    tracker_ = std::make_unique<FreshnessTracker>(&sim_, cluster_.get(),
                                                  tracker_options);
  }

  /// The staleness two whole-table reads give: the tracker's algorithm
  /// before heartbeat cursors, kept as the oracle its cursors must match.
  double FullReadStalenessMs(int i) {
    if (cluster_->IsSlaveRetired(i)) return -1.0;
    std::map<int64_t, int64_t> master_hb =
        repl::ReadHeartbeats(cluster_->master()->database(), "heartbeat");
    if (master_hb.empty()) return -1.0;
    std::map<int64_t, int64_t> slave_hb =
        repl::ReadHeartbeats(cluster_->slave(i)->database(), "heartbeat");
    for (auto it = slave_hb.rbegin(); it != slave_hb.rend(); ++it) {
      auto on_master = master_hb.find(it->first);
      if (on_master != master_hb.end()) {
        return static_cast<double>(
                   (it->first == master_hb.rbegin()->first
                        ? 0
                        : master_hb.rbegin()->second - on_master->second)) /
               1000.0;
      }
    }
    return -1.0;
  }

  /// Polls every 100 ms until `end`, checking each slave's staleness against
  /// the full-read oracle after every poll.
  void PollAndCheckUntil(SimTime end) {
    for (SimTime t = sim_.Now() + Millis(100); t <= end; t += Millis(100)) {
      sim_.RunUntil(t);
      tracker_->Poll();
      for (int i = 0; i < cluster_->num_slaves(); ++i) {
        EXPECT_EQ(tracker_->StalenessMs(i), FullReadStalenessMs(i))
            << "slave " << i << " at t = " << ToMillis(t) << " ms";
      }
    }
  }

  /// Commits the next heartbeat directly on the current master.
  void InsertHeartbeat() {
    std::map<int64_t, int64_t> hb =
        repl::ReadHeartbeats(cluster_->master()->database(), "heartbeat");
    int64_t id = hb.empty() ? 1 : hb.rbegin()->first + 1;
    ASSERT_TRUE(cluster_->master()
                    ->ExecuteDirect(StrFormat(
                        "INSERT INTO heartbeat (hb_id, ts) "
                        "VALUES (%lld, NOW_MICROS())",
                        static_cast<long long>(id)))
                    .ok());
  }

  sim::Simulation sim_;
  cloud::CloudOptions cloud_options_;
  std::unique_ptr<cloud::CloudProvider> provider_;
  std::unique_ptr<repl::ReplicationCluster> cluster_;
  std::unique_ptr<repl::HeartbeatPlugin> heartbeat_;
  std::unique_ptr<FreshnessTracker> tracker_;
};

TEST_F(FreshnessTrackerTest, UnknownBeforeAnyHeartbeat) {
  Deploy(1);
  tracker_->Poll();  // heartbeat table exists but holds no rows yet
  EXPECT_LT(tracker_->StalenessMs(0), 0.0);
  EXPECT_LT(tracker_->Probe()(0), 0.0);
}

TEST_F(FreshnessTrackerTest, HealthyReplicaMeasuresNearZero) {
  Deploy(1);
  tracker_->Start();
  sim_.RunUntil(Seconds(10));
  tracker_->Stop();
  heartbeat_->Stop();
  sim_.Run();
  double staleness = tracker_->StalenessMs(0);
  // An idle replica applies each heartbeat as it arrives: observed staleness
  // stays within one heartbeat period of zero.
  EXPECT_GE(staleness, 0.0);
  EXPECT_LE(staleness, 200.0);
  // The probe and the slave-registry metric expose the same sample.
  EXPECT_EQ(tracker_->Probe()(0), staleness);
  EXPECT_EQ(cluster_->slave(0)->metrics().ValueOf(
                "repl.slave.observed_staleness_ms"),
            staleness);
}

TEST_F(FreshnessTrackerTest, DetachedReplicaFallsBehind) {
  Deploy(2);
  PollAndCheckUntil(Seconds(2));
  // Retire slave 1 mid-run: it stops applying heartbeats; slave 0 stays
  // current. A retired replica reads as unknown (it is out of the rotation),
  // while re-activating it must resume measurement.
  ASSERT_TRUE(cluster_->RetireSlave(1).ok());
  PollAndCheckUntil(Seconds(5));
  EXPECT_GE(tracker_->StalenessMs(0), 0.0);
  EXPECT_LE(tracker_->StalenessMs(0), 200.0);
  EXPECT_LT(tracker_->StalenessMs(1), 0.0);
  ASSERT_TRUE(cluster_->ReviveSlave(1).ok());
  PollAndCheckUntil(Seconds(7));  // at least one poll after the revival
  EXPECT_GE(tracker_->StalenessMs(1), 0.0);
  heartbeat_->Stop();
  sim_.Run();
}

TEST_F(FreshnessTrackerTest, CursorsMatchFullReadsAcrossPromotion) {
  Deploy(2);
  PollAndCheckUntil(Seconds(1));
  // Slave 0 stalls, so slave 1 gets ahead of it.
  cluster_->slave(0)->instance().cpu().Freeze();
  PollAndCheckUntil(Seconds(2));
  EXPECT_GT(tracker_->StalenessMs(0), tracker_->StalenessMs(1));
  // Promoting the laggard re-clones the survivor from it, so the survivor's
  // newest heartbeat id goes back and the id its cursor held is gone.
  heartbeat_->Stop();
  ASSERT_TRUE(cluster_->PromoteSlave(0).ok());
  PollAndCheckUntil(Seconds(3) + Millis(500));  // no new heartbeat for 1.5 s
  EXPECT_EQ(tracker_->StalenessMs(1), 0.0);
  // New heartbeats commit on the new master while the survivor stalls, so
  // they pass the ids the survivor held before the promotion.
  cluster_->slave(1)->instance().cpu().Freeze();
  while (sim_.Now() < Seconds(5)) {
    InsertHeartbeat();
    PollAndCheckUntil(sim_.Now() + Millis(100));
  }
  EXPECT_GT(tracker_->StalenessMs(1), 1000.0);
  cluster_->slave(1)->instance().cpu().Thaw();
  PollAndCheckUntil(Seconds(6));
  EXPECT_EQ(tracker_->StalenessMs(1), 0.0);
}

TEST_F(FreshnessTrackerTest, CopyBehindTheCursorIsReadWhole) {
  Deploy(2);
  PollAndCheckUntil(Seconds(1));
  cluster_->slave(0)->instance().cpu().Freeze();
  PollAndCheckUntil(Seconds(2));
  // This time the survivor stalls too, and no poll runs between the
  // promotion and the new master passing the survivor's old newest id: that
  // id is on the master again, but the re-cloned survivor no longer holds it.
  heartbeat_->Stop();
  cluster_->slave(1)->instance().cpu().Freeze();
  ASSERT_TRUE(cluster_->PromoteSlave(0).ok());
  for (int k = 0; k < 20; ++k) {
    InsertHeartbeat();
    sim_.RunUntil(sim_.Now() + Millis(10));
  }
  PollAndCheckUntil(Seconds(3));
  EXPECT_GT(tracker_->StalenessMs(1), 1000.0);
  cluster_->slave(1)->instance().cpu().Thaw();
  PollAndCheckUntil(Seconds(4));
  EXPECT_EQ(tracker_->StalenessMs(1), 0.0);
}

TEST_F(FreshnessTrackerTest, PollCountIsMetered) {
  Deploy(1);
  tracker_->Poll();
  tracker_->Poll();
  EXPECT_EQ(tracker_->polls(), 2);
  EXPECT_EQ(tracker_->metrics().ValueOf("control.freshness.polls"), 2.0);
}

}  // namespace
}  // namespace clouddb::control
