#include "fault/fault_schedule.h"

#include <gtest/gtest.h>

#include "cloud/cloud_provider.h"
#include "fault/fault_injector.h"
#include "cloud/instance.h"
#include "cloud/placement.h"
#include "common/status.h"
#include "common/time_types.h"
#include "sim/simulation.h"

namespace clouddb::fault {
namespace {

TEST(FaultScheduleTest, BuilderRecordsEventsInOrder) {
  FaultSchedule schedule;
  schedule.Crash(Seconds(60), "master", Seconds(60))
      .Partition(Seconds(20), "slave-1", "master", Seconds(10))
      .Freeze(Seconds(5), "slave-2", Seconds(2))
      .Slowdown(Seconds(7), "slave-2", 0.25, Seconds(3))
      .Isolate(Seconds(9), "slave-1", Seconds(1))
      .LatencySpike(Seconds(11), "master", "slave-1", Millis(200), Seconds(4))
      .PacketLoss(Seconds(13), "master", "slave-2", 0.3, Seconds(5))
      .ClockStep(Seconds(15), "slave-1", -Millis(40));
  ASSERT_EQ(schedule.size(), 8u);
  EXPECT_FALSE(schedule.empty());

  const FaultEvent& crash = schedule.events()[0];
  EXPECT_EQ(crash.kind, FaultKind::kCrash);
  EXPECT_EQ(crash.at, Seconds(60));
  EXPECT_EQ(crash.duration, Seconds(60));
  EXPECT_EQ(crash.target, "master");
  EXPECT_TRUE(crash.peer.empty());

  const FaultEvent& partition = schedule.events()[1];
  EXPECT_EQ(partition.kind, FaultKind::kPartition);
  EXPECT_EQ(partition.target, "slave-1");
  EXPECT_EQ(partition.peer, "master");

  const FaultEvent& slowdown = schedule.events()[3];
  EXPECT_DOUBLE_EQ(slowdown.magnitude, 0.25);

  const FaultEvent& spike = schedule.events()[5];
  EXPECT_EQ(spike.delta, Millis(200));

  const FaultEvent& loss = schedule.events()[6];
  EXPECT_DOUBLE_EQ(loss.magnitude, 0.3);

  const FaultEvent& step = schedule.events()[7];
  EXPECT_EQ(step.delta, -Millis(40));
  EXPECT_EQ(step.duration, 0);
}

TEST(FaultScheduleTest, ToStringDescribesEveryKind) {
  FaultSchedule schedule;
  schedule.Crash(Seconds(60), "master", Seconds(30))
      .Crash(Seconds(90), "slave-1")  // permanent
      .Slowdown(Seconds(1), "slave-2", 0.5, Seconds(2))
      .PacketLoss(Seconds(2), "a", "b", 0.25, Seconds(3))
      .LatencySpike(Seconds(4), "a", "b", Millis(50), Seconds(5))
      .ClockStep(Seconds(3), "slave-1", Millis(40));
  std::string s = schedule.ToString();
  EXPECT_NE(s.find("crash master"), std::string::npos);
  EXPECT_NE(s.find("for 30.00s"), std::string::npos) << s;
  EXPECT_NE(s.find("permanently"), std::string::npos);
  EXPECT_NE(s.find("x0.50"), std::string::npos);
  EXPECT_NE(s.find("p=0.25"), std::string::npos);
  EXPECT_NE(s.find("latency-spike a <-> b +50.00ms"), std::string::npos) << s;
  EXPECT_NE(s.find("clock-step"), std::string::npos);
}

class ArmValidationTest : public ::testing::Test {
 protected:
  ArmValidationTest() : provider_(&sim_, cloud::CloudOptions{}, 1) {
    provider_.Launch("master", cloud::InstanceType::kSmall,
                     cloud::MasterPlacement());
    provider_.Launch("slave-1", cloud::InstanceType::kSmall,
                     cloud::SameZonePlacement());
  }

  sim::Simulation sim_;
  cloud::CloudProvider provider_;
};

TEST_F(ArmValidationTest, UnknownInstanceRejected) {
  FaultInjector injector(&sim_, &provider_);
  FaultSchedule schedule;
  schedule.Crash(Seconds(1), "no-such-instance");
  Status s = injector.Arm(schedule);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("no-such-instance"), std::string::npos);
  // Nothing was scheduled.
  EXPECT_EQ(sim_.pending_events(), 0u);
}

TEST_F(ArmValidationTest, UnknownPeerRejected) {
  FaultInjector injector(&sim_, &provider_);
  FaultSchedule schedule;
  schedule.Partition(Seconds(1), "master", "ghost", Seconds(1));
  EXPECT_TRUE(injector.Arm(schedule).IsInvalidArgument());
}

TEST_F(ArmValidationTest, SelfPartitionRejected) {
  FaultInjector injector(&sim_, &provider_);
  FaultSchedule schedule;
  schedule.Partition(Seconds(1), "master", "master", Seconds(1));
  EXPECT_TRUE(injector.Arm(schedule).IsInvalidArgument());
}

TEST_F(ArmValidationTest, BadMagnitudesRejected) {
  FaultInjector injector(&sim_, &provider_);
  FaultSchedule zero_speed;
  zero_speed.Slowdown(Seconds(1), "master", 0.0, Seconds(1));
  EXPECT_TRUE(injector.Arm(zero_speed).IsInvalidArgument());

  FaultSchedule bad_loss;
  bad_loss.PacketLoss(Seconds(1), "master", "slave-1", 1.5, Seconds(1));
  EXPECT_TRUE(injector.Arm(bad_loss).IsInvalidArgument());

  FaultSchedule negative_time;
  negative_time.Crash(-Seconds(1), "master");
  EXPECT_TRUE(injector.Arm(negative_time).IsInvalidArgument());

  FaultSchedule negative_duration;
  negative_duration.Freeze(Seconds(1), "master", -Seconds(1));
  EXPECT_TRUE(injector.Arm(negative_duration).IsInvalidArgument());
}

TEST_F(ArmValidationTest, OverlappingWindowsOfOneKindOnOneTargetRejected) {
  provider_.Launch("slave-2", cloud::InstanceType::kSmall,
                   cloud::SameZonePlacement());
  // Two slowdowns of one instance in one schedule: the first heal would
  // restore full speed while the second window is still open.
  {
    FaultInjector injector(&sim_, &provider_);
    FaultSchedule schedule;
    schedule.Slowdown(Seconds(1), "master", 0.5, Seconds(4))
        .Slowdown(Seconds(2), "master", 0.25, Seconds(6));
    Status s = injector.Arm(schedule);
    EXPECT_TRUE(s.IsInvalidArgument());
    EXPECT_NE(s.message().find("x0.50"), std::string::npos) << s.message();
    EXPECT_NE(s.message().find("x0.25"), std::string::npos) << s.message();
    EXPECT_EQ(sim_.pending_events(), 0u);
  }
  // Across two Arm calls, and a permanent fault runs to infinity.
  {
    FaultInjector injector(&sim_, &provider_);
    FaultSchedule first;
    first.Crash(Seconds(1), "slave-1");
    ASSERT_TRUE(injector.Arm(first).ok());
    FaultSchedule second;
    second.Crash(Seconds(100), "slave-1", Seconds(1));
    EXPECT_TRUE(injector.Arm(second).IsInvalidArgument());
  }
  // Link faults name an unordered pair: both orders collide.
  for (bool reversed : {false, true}) {
    FaultInjector injector(&sim_, &provider_);
    FaultSchedule schedule;
    schedule.Partition(Seconds(1), "master", "slave-1", Seconds(4))
        .Partition(Seconds(2), reversed ? "slave-1" : "master",
                   reversed ? "master" : "slave-1", Seconds(6));
    EXPECT_TRUE(injector.Arm(schedule).IsInvalidArgument()) << reversed;
  }
  // Windows that only touch collide too: at the shared instant the heal
  // and the begin would fire in listing order.
  {
    FaultInjector injector(&sim_, &provider_);
    FaultSchedule schedule;
    schedule.Freeze(Seconds(1), "master", Seconds(1))
        .Freeze(Seconds(2), "master", Seconds(1));
    EXPECT_TRUE(injector.Arm(schedule).IsInvalidArgument());
  }
  sim_.Run();
  // Still accepted: the same kind on a different target, and two windows
  // on one target separated by a gap.
  FaultInjector injector(&sim_, &provider_);
  FaultSchedule schedule;
  schedule.Slowdown(Seconds(1), "master", 0.5, Seconds(4))
      .Slowdown(Seconds(2), "slave-1", 0.25, Seconds(6))
      .Partition(Seconds(1), "master", "slave-1", Seconds(4))
      .Partition(Seconds(2), "master", "slave-2", Seconds(4))
      .Slowdown(Seconds(6), "master", 0.5, Seconds(1));
  EXPECT_TRUE(injector.Arm(schedule).ok());
}

TEST_F(ArmValidationTest, ValidScheduleArmsBeginAndHealEvents) {
  FaultInjector injector(&sim_, &provider_);
  FaultSchedule schedule;
  schedule.Partition(Seconds(1), "master", "slave-1", Seconds(2))
      .ClockStep(Seconds(5), "slave-1", Millis(10));
  ASSERT_TRUE(injector.Arm(schedule).ok());
  // Partition begin + heal, clock step (one-shot, no heal).
  EXPECT_EQ(sim_.pending_events(), 3u);
  sim_.Run();
  EXPECT_EQ(injector.faults_begun(), 2);
  EXPECT_EQ(injector.faults_healed(), 1);
  EXPECT_EQ(injector.log().size(), 3u);
}

}  // namespace
}  // namespace clouddb::fault
