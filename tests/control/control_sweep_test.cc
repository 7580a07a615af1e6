// End-to-end control-loop tests: a short RunControlExperiment exercising the
// full spine (heartbeats -> tracker -> bounded routing -> controller), and
// the sweep determinism contract — with the controller in the loop, the
// rendered tables must be byte-identical for any worker count.

#include "harness/sweep_control.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "client/rw_split_proxy.h"
#include "common/time_types.h"
#include "harness/control_experiment.h"

namespace clouddb::harness {
namespace {

ControlExperimentConfig ShortConfig() {
  ControlExperimentConfig config;
  config.staleness_bound = Millis(500);
  config.base_users = 4;
  config.surge_users = 12;
  config.warmup = Seconds(10);
  config.measure = Seconds(90);
  config.surge_start = Seconds(20);
  config.surge_duration = Seconds(30);
  config.data_scale = 20;
  config.initial_slaves = 1;
  config.controller.max_active_slaves = 3;
  config.controller.sustain_ticks = 2;
  config.controller.cooldown_ticks = 3;
  config.seed = 42;
  return config;
}

TEST(ControlExperimentTest, ClosesTheLoopOnAShortRun) {
  auto outcome = RunControlExperiment(ShortConfig());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const ControlExperimentResult& r = *outcome;
  EXPECT_GT(r.completed_ops, 0);
  EXPECT_EQ(r.failed_ops, 0);
  EXPECT_GT(r.bounded_reads, 0);
  // Every bounded read either went to an in-bound replica or fell back.
  EXPECT_EQ(r.bounded_to_slave + r.master_fallbacks + r.read_retries,
            r.bounded_reads);
  EXPECT_GE(r.achieved_freshness_pct, 0.0);
  EXPECT_LE(r.achieved_freshness_pct, 100.0);
  // The merged cluster table carries spine metrics from every tier.
  EXPECT_NE(r.metrics_table.find("proxy.reads.bounded"), std::string::npos);
  EXPECT_NE(r.metrics_table.find("control.ticks"), std::string::npos);
  EXPECT_NE(r.metrics_table.find("repl.slave.applied_index"),
            std::string::npos);
}

/// The `db.statement_cache.*` rows of a metrics table, each as "name kind
/// value count" with the column padding removed.
std::vector<std::string> StatementCacheRows(const std::string& table) {
  std::vector<std::string> rows;
  std::istringstream lines(table);
  for (std::string line; std::getline(lines, line);) {
    std::replace(line.begin(), line.end(), '|', ' ');
    std::istringstream cells(line);
    std::string row;
    for (std::string cell; cells >> cell;) {
      row += row.empty() ? cell : " " + cell;
    }
    if (row.rfind("db.statement_cache.", 0) == 0) rows.push_back(row);
  }
  return rows;
}

// Pins the statement-cache work of the short control run, merged over the
// master and every slave: a second parse or a lost hit anywhere in the tier
// moves these rows (see ExperimentTest.QuickRunPinsParseAndReplicationWork).
TEST(ControlExperimentTest, ShortRunPinsStatementCacheWork) {
  auto outcome = RunControlExperiment(ShortConfig());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // Gauges sum across nodes: the tier's hits and misses.
  EXPECT_EQ(StatementCacheRows(outcome->metrics_table),
            (std::vector<std::string>{
                "db.statement_cache.hits gauge 1697.000 1",
                "db.statement_cache.misses gauge 10.000 1"}));
}

TEST(ControlExperimentTest, IdenticalSeedsReproduceByteIdenticalMetrics) {
  auto a = RunControlExperiment(ShortConfig());
  auto b = RunControlExperiment(ShortConfig());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->metrics_table, b->metrics_table);
  EXPECT_EQ(a->TimelineString(), b->TimelineString());
  EXPECT_EQ(a->completed_ops, b->completed_ops);
  EXPECT_EQ(a->sla_violations, b->sla_violations);
}

TEST(ControlSweepTest, ParallelJobsAreByteIdenticalToSerial) {
  ControlSweepConfig sweep;
  sweep.base = ShortConfig();
  sweep.base.measure = Seconds(60);
  sweep.staleness_bounds = {Millis(250), client::kNoStalenessBound};
  sweep.user_counts = {2, 4};
  sweep.surge_factor = 2.0;

  sweep.jobs = 1;
  auto serial = RunControlSweep(sweep);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  sweep.jobs = 4;
  auto parallel = RunControlSweep(sweep);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(
      serial->FreshnessTable(sweep.staleness_bounds, sweep.user_counts)
          .ToAscii(),
      parallel->FreshnessTable(sweep.staleness_bounds, sweep.user_counts)
          .ToAscii());
  EXPECT_EQ(
      serial->OffloadTable(sweep.staleness_bounds, sweep.user_counts)
          .ToAscii(),
      parallel->OffloadTable(sweep.staleness_bounds, sweep.user_counts)
          .ToAscii());
  EXPECT_EQ(
      serial->ReplicaTable(sweep.staleness_bounds, sweep.user_counts)
          .ToAscii(),
      parallel->ReplicaTable(sweep.staleness_bounds, sweep.user_counts)
          .ToAscii());
  ASSERT_EQ(serial->cells().size(), parallel->cells().size());
  for (size_t i = 0; i < serial->cells().size(); ++i) {
    EXPECT_EQ(serial->cells()[i].result.metrics_table,
              parallel->cells()[i].result.metrics_table);
  }
}

TEST(ControlSweepTest, GridIsCompleteAndOrdered) {
  ControlSweepConfig sweep;
  sweep.base = ShortConfig();
  sweep.base.measure = Seconds(30);
  sweep.base.enable_controller = false;  // routing-only cells run faster
  sweep.staleness_bounds = {SimDuration{0}, Millis(500)};
  sweep.user_counts = {2};
  auto result = RunControlSweep(sweep);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->cells().size(), 2u);
  EXPECT_EQ(result->cells()[0].bound, SimDuration{0});
  EXPECT_EQ(result->cells()[1].bound, Millis(500));
  ASSERT_NE(result->Find(SimDuration{0}, 2), nullptr);
  // Bound 0 never trusts a replica: full master fallback.
  EXPECT_EQ(result->Find(SimDuration{0}, 2)->result.bounded_to_slave, 0);
  EXPECT_EQ(result->MasterOffload(SimDuration{0}, 2), 0.0);
}

}  // namespace
}  // namespace clouddb::harness
