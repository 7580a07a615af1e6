#include "sim/simulation.h"
#include "common/time_types.h"

#include <gtest/gtest.h>

#include <vector>

namespace clouddb::sim {
namespace {

TEST(SimulationTest, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulationTest, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(300, [&] { order.push_back(3); });
  sim.ScheduleAt(100, [&] { order.push_back(1); });
  sim.ScheduleAt(200, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 300);
  EXPECT_EQ(sim.events_executed(), 3);
}

TEST(SimulationTest, TiesBreakInSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(50, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulationTest, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  SimTime seen = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(50, [&] { seen = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(seen, 150);
}

TEST(SimulationTest, PastDeadlineClampsToNow) {
  Simulation sim;
  SimTime seen = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAt(10, [&] { seen = sim.Now(); });  // in the past
  });
  sim.Run();
  EXPECT_EQ(seen, 100);
}

TEST(SimulationTest, NegativeDelayClampsToZero) {
  Simulation sim;
  SimTime seen = -1;
  sim.ScheduleAfter(-100, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, 0);
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  auto handle = sim.ScheduleAt(10, [&] { ran = true; });
  handle.Cancel();
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulationTest, CancelIsIdempotentAndSafeAfterRun) {
  Simulation sim;
  int runs = 0;
  auto handle = sim.ScheduleAt(10, [&] { ++runs; });
  sim.Run();
  handle.Cancel();  // already executed; must be harmless
  handle.Cancel();
  EXPECT_EQ(runs, 1);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  std::vector<SimTime> fired;
  sim.ScheduleAt(100, [&] { fired.push_back(100); });
  sim.ScheduleAt(200, [&] { fired.push_back(200); });
  sim.ScheduleAt(300, [&] { fired.push_back(300); });
  sim.RunUntil(200);
  EXPECT_EQ(fired, (std::vector<SimTime>{100, 200}));
  EXPECT_EQ(sim.Now(), 200);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(SimulationTest, RunUntilAdvancesClockWhenQueueEmpty) {
  Simulation sim;
  sim.RunUntil(5000);
  EXPECT_EQ(sim.Now(), 5000);
}

TEST(SimulationTest, EventsScheduledDuringRunExecute) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.ScheduleAfter(10, recurse);
  };
  sim.ScheduleAt(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), 40);
}

TEST(SimulationTest, FastForwardMovesClock) {
  Simulation sim;
  sim.FastForwardTo(123);
  EXPECT_EQ(sim.Now(), 123);
  sim.FastForwardTo(50);  // backwards is a no-op
  EXPECT_EQ(sim.Now(), 123);
}

TEST(SimulationTest, RunUntilFiresEventsExactlyAtDeadline) {
  // An event at t == deadline is inside the window (RunUntil is inclusive),
  // and a later event must survive untouched with the clock pinned to the
  // deadline, not to the last fired event.
  Simulation sim;
  std::vector<SimTime> fired;
  sim.ScheduleAt(200, [&] { fired.push_back(sim.Now()); });
  sim.ScheduleAt(201, [&] { fired.push_back(sim.Now()); });
  sim.RunUntil(200);
  EXPECT_EQ(fired, (std::vector<SimTime>{200}));
  EXPECT_EQ(sim.Now(), 200);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulationTest, CancelledEventsLeavePendingCount) {
  // pending_events() counts live work only; tombstones are tracked
  // separately and swept lazily.
  Simulation sim;
  auto a = sim.ScheduleAt(10, [] {});
  auto b = sim.ScheduleAt(20, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  a.Cancel();
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.cancelled_pending(), 1u);
  b.Cancel();
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 0);
}

TEST(SimulationTest, FastForwardSkipsOverCancelledEvents) {
  // A cancelled event between now and the target must not trip the
  // "cannot skip pending work" precondition.
  Simulation sim;
  auto h = sim.ScheduleAt(50, [] {});
  h.Cancel();
  sim.FastForwardTo(100);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulationTest, CancelFromInsideFiringCallback) {
  // An event may cancel a later one while firing; the handle of the
  // *currently firing* event is already spent, so cancelling it is a no-op.
  Simulation sim;
  bool later_ran = false;
  Simulation::EventHandle self, later;
  later = sim.ScheduleAt(20, [&] { later_ran = true; });
  self = sim.ScheduleAt(10, [&] {
    self.Cancel();   // firing event: must be harmless
    later.Cancel();  // future event: must stick
  });
  sim.Run();
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(sim.events_executed(), 1);
}

TEST(SimulationTest, SlotReuseNeverResurrectsCancelledEvent) {
  // Cancelling frees the slab slot for reuse. A stale handle to the old
  // occupant must not cancel (or fire) the new one: generations disambiguate.
  Simulation sim;
  bool old_ran = false;
  std::vector<int> new_ran;
  auto stale = sim.ScheduleAt(10, [&] { old_ran = true; });
  stale.Cancel();
  // Reoccupy the freed slot (LIFO free list: first reschedule reuses it).
  for (int i = 0; i < 4; ++i) {
    sim.ScheduleAt(10 + i, [&new_ran, i] { new_ran.push_back(i); });
  }
  stale.Cancel();  // stale generation: must not touch the new occupant
  sim.Run();
  EXPECT_FALSE(old_ran);
  EXPECT_EQ(new_ran, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.events_executed(), 4);
}

TEST(SimulationTest, CancelHeavyChurnStaysConsistent) {
  // Schedule/cancel churn far past the compaction threshold: survivors all
  // fire in order and both counters drain to zero.
  Simulation sim;
  int fired = 0;
  std::vector<Simulation::EventHandle> doomed;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 10; ++i) {
      doomed.push_back(
          sim.ScheduleAt(1000 + round * 10 + i, [&] { ++fired; }));
    }
    sim.ScheduleAt(500 + round, [&] { ++fired; });  // survivor
    for (auto& h : doomed) h.Cancel();
    doomed.clear();
  }
  EXPECT_EQ(sim.pending_events(), 50u);
  sim.Run();
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(TimerTest, RearmSupersedesPendingOccurrence) {
  Simulation sim;
  std::vector<SimTime> fired;
  Timer t;
  t.Bind(&sim, [&] { fired.push_back(sim.Now()); });
  t.ArmAt(100);
  t.ArmAt(250);  // supersedes the 100us occurrence entirely
  sim.Run();
  EXPECT_EQ(fired, (std::vector<SimTime>{250}));
}

TEST(TimerTest, CancelAndRearmFromOwnCallback) {
  Simulation sim;
  int fires = 0;
  Timer t;
  t.Bind(&sim, [&] {
    if (++fires < 3) t.ArmAfter(10);
  });
  t.ArmAt(5);
  sim.Run();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.Now(), 25);
  EXPECT_FALSE(t.armed());
}

TEST(PeriodicTimerTest, FirstFireIsOnePeriodOut) {
  Simulation sim;
  std::vector<SimTime> ticks;
  PeriodicTimer p;
  p.Start(&sim, 100, [&] {
    ticks.push_back(sim.Now());
    if (ticks.size() == 3) p.Stop();
  });
  sim.Run();
  EXPECT_EQ(ticks, (std::vector<SimTime>{100, 200, 300}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(PeriodicTimerTest, StopFromOwnTickLeavesNoPendingWork) {
  Simulation sim;
  int ticks = 0;
  PeriodicTimer p;
  p.Start(&sim, 7, [&] {
    if (++ticks == 2) p.Stop();
  });
  sim.RunUntil(1000);
  EXPECT_EQ(ticks, 2);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(SimulationTest, ManyEventsStressOrdering) {
  Simulation sim;
  SimTime last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    SimTime when = (i * 7919) % 10007;  // pseudo-shuffled times
    sim.ScheduleAt(when, [&, when] {
      if (when < last) monotone = false;
      last = when;
    });
  }
  sim.Run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.events_executed(), 10000);
}

}  // namespace
}  // namespace clouddb::sim
