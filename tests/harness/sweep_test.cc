#include "harness/sweep.h"
#include "common/result.h"
#include "common/status.h"
#include "common/table_writer.h"
#include "common/time_types.h"
#include "harness/grid.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace clouddb::harness {
namespace {

SweepConfig QuickSweep() {
  SweepConfig sweep;
  sweep.base.data_scale = 30;
  sweep.base.idle_window = Seconds(30);
  sweep.base.benchmark.ramp_up = Seconds(30);
  sweep.base.benchmark.steady = Seconds(120);
  sweep.base.benchmark.ramp_down = Seconds(15);
  sweep.base.benchmark.think_time_mean = Seconds(5);
  sweep.base.seed = 5;
  sweep.slave_counts = {1, 2};
  sweep.user_counts = {10, 40};
  return sweep;
}

TEST(SweepTest, RunsEveryCellAndReportsProgress) {
  SweepConfig sweep = QuickSweep();
  int progress_calls = 0;
  auto result = RunSweep(sweep, [&](const SweepCell&) { ++progress_calls; });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(progress_calls, 4);
  EXPECT_EQ(result->cells().size(), 4u);
  for (int s : sweep.slave_counts) {
    for (int u : sweep.user_counts) {
      ASSERT_NE(result->Find(s, u), nullptr);
      EXPECT_GT(result->Throughput(s, u), 0.0);
    }
  }
  EXPECT_EQ(result->Find(9, 9), nullptr);
  EXPECT_EQ(result->Throughput(9, 9), 0.0);
}

TEST(SweepTest, ThroughputGrowsWithUsersBelowSaturation) {
  auto result = RunSweep(QuickSweep());
  ASSERT_TRUE(result.ok());
  for (int s : {1, 2}) {
    EXPECT_GT(result->Throughput(s, 40), result->Throughput(s, 10));
  }
}

TEST(SweepTest, TablesHaveOneRowPerWorkload) {
  SweepConfig sweep = QuickSweep();
  auto result = RunSweep(sweep);
  ASSERT_TRUE(result.ok());
  TableWriter throughput =
      result->ThroughputTable(sweep.slave_counts, sweep.user_counts);
  EXPECT_EQ(throughput.num_rows(), sweep.user_counts.size());
  std::string ascii = throughput.ToAscii();
  EXPECT_NE(ascii.find("| users | 1 slave"), std::string::npos) << ascii;
  EXPECT_NE(ascii.find("| 2 slaves"), std::string::npos) << ascii;
  TableWriter delay = result->DelayTable(sweep.slave_counts,
                                         sweep.user_counts);
  EXPECT_EQ(delay.num_rows(), sweep.user_counts.size());
}

TEST(SweepTest, ParallelJobsAreByteIdenticalToSerial) {
  // SweepConfig::jobs trades wall-clock for threads only: every cell's seed
  // is derived from grid position before any worker starts, each worker
  // drives an independent Simulation, and results are consumed in grid
  // order. jobs=4 must therefore reproduce jobs=1 exactly — same progress
  // order, same per-cell metrics, byte-identical tables.
  SweepConfig serial = QuickSweep();
  serial.jobs = 1;
  SweepConfig parallel = QuickSweep();
  parallel.jobs = 4;

  std::vector<std::pair<int, int>> serial_order, parallel_order;
  auto serial_result = RunSweep(serial, [&](const SweepCell& c) {
    serial_order.emplace_back(c.slaves, c.users);
  });
  auto parallel_result = RunSweep(parallel, [&](const SweepCell& c) {
    parallel_order.emplace_back(c.slaves, c.users);
  });
  ASSERT_TRUE(serial_result.ok()) << serial_result.status().ToString();
  ASSERT_TRUE(parallel_result.ok()) << parallel_result.status().ToString();

  EXPECT_EQ(serial_order, parallel_order);
  ASSERT_EQ(serial_result->cells().size(), parallel_result->cells().size());
  for (int s : serial.slave_counts) {
    for (int u : serial.user_counts) {
      const SweepCell* a = serial_result->Find(s, u);
      const SweepCell* b = parallel_result->Find(s, u);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      EXPECT_EQ(a->result.benchmark.throughput_ops,
                b->result.benchmark.throughput_ops)
          << "slaves=" << s << " users=" << u;
      EXPECT_EQ(a->result.mean_relative_delay_ms,
                b->result.mean_relative_delay_ms)
          << "slaves=" << s << " users=" << u;
    }
  }
  EXPECT_EQ(serial_result->ThroughputTable(serial.slave_counts,
                                           serial.user_counts).ToAscii(),
            parallel_result->ThroughputTable(parallel.slave_counts,
                                             parallel.user_counts).ToAscii());
  EXPECT_EQ(serial_result->DelayTable(serial.slave_counts,
                                      serial.user_counts).ToAscii(),
            parallel_result->DelayTable(parallel.slave_counts,
                                        parallel.user_counts).ToAscii());
}

TEST(SweepTest, JobsZeroMeansHardwareConcurrency) {
  SweepConfig sweep = QuickSweep();
  sweep.jobs = 0;
  int progress_calls = 0;
  auto result = RunSweep(sweep, [&](const SweepCell&) { ++progress_calls; });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(progress_calls, 4);
  EXPECT_EQ(result->cells().size(), 4u);
}

TEST(SweepTest, FailingCellStopsTheGridIdenticallyForEveryJobs) {
  // Cell 5 of 10 fails. Serial and parallel runs must return its status and
  // report exactly the cells before it, in order, even when parallel
  // workers finish later cells first.
  std::vector<int> cells = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto run = [](const int& cell) -> Result<int> {
    if (cell == 5) return Status::Internal("cell 5 failed");
    return cell * cell;
  };
  for (int jobs : {1, 4}) {
    std::vector<std::pair<int, int>> seen;
    Status status = RunGrid(cells, jobs, run, [&](const int& cell, int value) {
      seen.emplace_back(cell, value);
    });
    EXPECT_EQ(status.ToString(), Status::Internal("cell 5 failed").ToString())
        << "jobs=" << jobs;
    EXPECT_EQ(seen, (std::vector<std::pair<int, int>>{
                        {0, 0}, {1, 1}, {2, 4}, {3, 9}, {4, 16}}))
        << "jobs=" << jobs;
  }
}

TEST(SweepTest, SaturationDetection) {
  // Synthetic sweep result: throughput rises then flattens after 100 users.
  SweepResult result;
  auto add = [&](int slaves, int users, double tput) {
    SweepCell cell;
    cell.slaves = slaves;
    cell.users = users;
    cell.result.benchmark.throughput_ops = tput;
    result.Add(std::move(cell));
  };
  std::vector<int> users = {50, 75, 100, 125, 150};
  add(1, 50, 5.0);
  add(1, 75, 8.0);
  add(1, 100, 10.0);
  add(1, 125, 9.6);
  add(1, 150, 9.5);
  EXPECT_EQ(result.SaturationUsers(1, users), 125);
  // Still rising at the end: no saturation observed.
  add(2, 50, 5.0);
  add(2, 75, 8.0);
  add(2, 100, 10.0);
  add(2, 125, 12.0);
  add(2, 150, 14.0);
  EXPECT_EQ(result.SaturationUsers(2, users), 0);
}

}  // namespace
}  // namespace clouddb::harness
