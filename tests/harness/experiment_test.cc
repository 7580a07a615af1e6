#include "harness/experiment.h"
#include "cloud/placement.h"
#include "common/time_types.h"

#include <gtest/gtest.h>

namespace clouddb::harness {
namespace {

/// A short-but-real experiment configuration (minutes instead of the paper's
/// 35-minute runs; the machinery exercised is identical).
ExperimentConfig QuickConfig() {
  ExperimentConfig config;
  config.data_scale = 40;
  config.num_slaves = 1;
  config.num_users = 20;
  config.idle_window = Seconds(40);
  config.benchmark.ramp_up = Seconds(60);
  config.benchmark.steady = Seconds(180);
  config.benchmark.ramp_down = Seconds(30);
  config.benchmark.think_time_mean = Seconds(5);
  config.seed = 1234;
  return config;
}

TEST(ExperimentTest, QuickRunProducesSaneMetrics) {
  auto outcome = RunExperiment(QuickConfig());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const ExperimentResult& r = *outcome;
  EXPECT_GT(r.benchmark.throughput_ops, 1.0);
  EXPECT_LT(r.benchmark.throughput_ops, 10.0);
  EXPECT_TRUE(r.fully_replicated);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.heartbeats_issued, 200);  // roughly one per second of run
  EXPECT_GT(r.binlog_events, 0);
  ASSERT_EQ(r.relative_delay_ms.size(), 1u);
  // Low load: relative delay is modest but the loaded window shows *some*
  // extra queueing over idle.
  EXPECT_GT(r.loaded_delay_ms[0], r.idle_delay_ms[0]);
  EXPECT_LT(r.relative_delay_ms[0], 5000.0);
  EXPECT_DOUBLE_EQ(r.mean_relative_delay_ms, r.relative_delay_ms[0]);
}

TEST(ExperimentTest, DeterministicUnderSeed) {
  auto a = RunExperiment(QuickConfig());
  auto b = RunExperiment(QuickConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->benchmark.throughput_ops, b->benchmark.throughput_ops);
  EXPECT_DOUBLE_EQ(a->mean_relative_delay_ms, b->mean_relative_delay_ms);
  EXPECT_EQ(a->binlog_events, b->binlog_events);
}

TEST(ExperimentTest, StatementCacheAblationIsBitIdentical) {
  // The fig2-style invariant for this optimization: the statement cache only
  // removes redundant parsing work, so every measured number — throughput,
  // response times, delays, replication counters — must be bit-identical
  // with the cache on and off.
  ExperimentConfig config = QuickConfig();
  config.statement_cache = true;
  auto on = RunExperiment(config);
  config.statement_cache = false;
  auto off = RunExperiment(config);
  ASSERT_TRUE(on.ok());
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(on->benchmark.throughput_ops, off->benchmark.throughput_ops);
  EXPECT_EQ(on->benchmark.read_throughput_ops,
            off->benchmark.read_throughput_ops);
  EXPECT_EQ(on->benchmark.write_throughput_ops,
            off->benchmark.write_throughput_ops);
  EXPECT_EQ(on->benchmark.mean_response_ms, off->benchmark.mean_response_ms);
  EXPECT_EQ(on->benchmark.p95_response_ms, off->benchmark.p95_response_ms);
  EXPECT_EQ(on->benchmark.completed_ops, off->benchmark.completed_ops);
  EXPECT_EQ(on->benchmark.failed_ops, off->benchmark.failed_ops);
  EXPECT_EQ(on->benchmark.master_cpu_utilization,
            off->benchmark.master_cpu_utilization);
  EXPECT_EQ(on->benchmark.slave_cpu_utilization,
            off->benchmark.slave_cpu_utilization);
  EXPECT_EQ(on->idle_delay_ms, off->idle_delay_ms);
  EXPECT_EQ(on->loaded_delay_ms, off->loaded_delay_ms);
  EXPECT_EQ(on->relative_delay_ms, off->relative_delay_ms);
  EXPECT_EQ(on->mean_relative_delay_ms, off->mean_relative_delay_ms);
  EXPECT_EQ(on->fully_replicated, off->fully_replicated);
  EXPECT_EQ(on->converged, off->converged);
  EXPECT_EQ(on->heartbeats_issued, off->heartbeats_issued);
  EXPECT_EQ(on->binlog_events, off->binlog_events);
  // The run itself exercised the caches: hits on every layer that parses.
  EXPECT_GT(on->benchmark.statement_cache_hits, 0);
  EXPECT_GT(on->benchmark.route_cache_hits, 0);
  EXPECT_EQ(off->benchmark.statement_cache_hits, 0);
  EXPECT_EQ(off->benchmark.route_cache_hits, 0);
}

// Pins the parse and replication work of one quick cell, statement-based and
// row-based with batched shipping. Every count is a pure function of the
// seed, so a change that adds or removes work (a second parse, a lost cache
// hit, an extra event or batch) fails here without timing noise; a change
// that removes work on purpose updates these numbers and says so.
TEST(ExperimentTest, QuickRunPinsParseAndReplicationWork) {
  struct Pin {
    bool row_based;
    int64_t statement_cache_hits, statement_cache_misses;
    int64_t route_cache_hits, route_cache_misses;
    int64_t binlog_events, heartbeats_issued;
    int64_t writeset_applies, fallback_applies, binlog_batches;
  };
  // The statement-cache counts are the master's own compiles (the pre-load,
  // the heartbeats, re-shipped events) plus any direct reads: client ops run
  // the proxy's compile and slaves the master's, so both modes match.
  for (const Pin& pin : {Pin{false, 1034, 7, 927, 7, 788, 311, 0, 0, 0},
                         Pin{true, 1034, 7, 927, 7, 788, 311, 476, 312,
                             760}}) {
    SCOPED_TRACE(pin.row_based ? "row-based, batches of 8"
                               : "statement-based");
    ExperimentConfig config = QuickConfig();
    if (pin.row_based) {
      config.row_based_repl = true;
      config.binlog_batch_size = 8;
    }
    auto r = RunExperiment(config);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->benchmark.statement_cache_hits, pin.statement_cache_hits);
    EXPECT_EQ(r->benchmark.statement_cache_misses,
              pin.statement_cache_misses);
    EXPECT_EQ(r->benchmark.route_cache_hits, pin.route_cache_hits);
    EXPECT_EQ(r->benchmark.route_cache_misses, pin.route_cache_misses);
    EXPECT_EQ(r->binlog_events, pin.binlog_events);
    EXPECT_EQ(r->heartbeats_issued, pin.heartbeats_issued);
    EXPECT_EQ(r->benchmark.writeset_applies, pin.writeset_applies);
    EXPECT_EQ(r->benchmark.fallback_applies, pin.fallback_applies);
    EXPECT_EQ(r->benchmark.binlog_batches, pin.binlog_batches);
  }
}

TEST(ExperimentTest, DifferentSeedsDiffer) {
  ExperimentConfig config = QuickConfig();
  auto a = RunExperiment(config);
  config.seed = 4321;
  auto b = RunExperiment(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->benchmark.throughput_ops, b->benchmark.throughput_ops);
}

TEST(ExperimentTest, MoreSlavesReduceRelativeDelayUnderLoad) {
  // The paper's core delay finding: "as the number of slaves increases, the
  // replication delay decreases". Use a load that saturates one slave.
  ExperimentConfig config = QuickConfig();
  config.num_users = 80;
  config.num_slaves = 1;
  auto one = RunExperiment(config);
  config.num_slaves = 3;
  auto three = RunExperiment(config);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(three.ok());
  EXPECT_GT(one->mean_relative_delay_ms, three->mean_relative_delay_ms);
}

TEST(ExperimentTest, MoreUsersIncreaseRelativeDelay) {
  // "...as the number of workload increases, the replication delay
  // increases."
  ExperimentConfig config = QuickConfig();
  config.num_users = 10;
  auto light = RunExperiment(config);
  config.num_users = 90;
  auto heavy = RunExperiment(config);
  ASSERT_TRUE(light.ok());
  ASSERT_TRUE(heavy.ok());
  EXPECT_GT(heavy->mean_relative_delay_ms, light->mean_relative_delay_ms);
  EXPECT_GT(heavy->benchmark.throughput_ops, light->benchmark.throughput_ops);
}

TEST(ExperimentTest, DifferentRegionLowersThroughputAtFixedWorkload) {
  // Sub-saturation: longer read round trips slow the closed loop.
  ExperimentConfig config = QuickConfig();
  config.num_users = 20;
  config.location = LocationConfig::kSameZone;
  auto near = RunExperiment(config);
  config.location = LocationConfig::kDifferentRegion;
  auto far = RunExperiment(config);
  ASSERT_TRUE(near.ok());
  ASSERT_TRUE(far.ok());
  EXPECT_GT(near->benchmark.throughput_ops, far->benchmark.throughput_ops);
}

TEST(ExperimentTest, SynchronousReplicationStillConverges) {
  ExperimentConfig config = QuickConfig();
  config.synchronous_replication = true;
  config.num_users = 10;
  auto r = RunExperiment(config);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_GT(r->benchmark.throughput_ops, 0.5);
}

TEST(ExperimentTest, LocationHelpers) {
  EXPECT_EQ(SlavePlacementFor(LocationConfig::kSameZone),
            cloud::SameZonePlacement());
  EXPECT_EQ(SlavePlacementFor(LocationConfig::kDifferentZone),
            cloud::DifferentZonePlacement());
  EXPECT_EQ(SlavePlacementFor(LocationConfig::kDifferentRegion),
            cloud::DifferentRegionPlacement());
  EXPECT_NE(std::string(LocationConfigToString(LocationConfig::kSameZone)),
            std::string(LocationConfigToString(LocationConfig::kDifferentRegion)));
}

}  // namespace
}  // namespace clouddb::harness
