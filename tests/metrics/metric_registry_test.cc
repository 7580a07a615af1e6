#include "metrics/metric_registry.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace clouddb::metrics {
namespace {

TEST(MetricRegistryTest, CountersAccumulateAndAreFindable) {
  MetricRegistry registry("node");
  Counter* ops = registry.AddCounter("node.ops.total");
  ops->Increment();
  ops->Increment(41);
  EXPECT_EQ(ops->value(), 42);
  ASSERT_NE(registry.FindCounter("node.ops.total"), nullptr);
  EXPECT_EQ(registry.FindCounter("node.ops.total")->value(), 42);
  EXPECT_EQ(registry.ValueOf("node.ops.total"), 42.0);
  EXPECT_TRUE(registry.Has("node.ops.total"));
  EXPECT_FALSE(registry.Has("node.ops.missing"));
  EXPECT_EQ(registry.ValueOf("node.ops.missing"), 0.0);
  // Kind-mismatched lookups return nullptr, not a reinterpreted entry.
  EXPECT_EQ(registry.FindGauge("node.ops.total"), nullptr);
}

TEST(MetricRegistryTest, ProbeGaugesEvaluateLazily) {
  MetricRegistry registry("node");
  int64_t backing = 0;
  Gauge* probe = registry.AddProbe("node.queue.depth", [&backing] {
    return static_cast<double>(backing);
  });
  EXPECT_TRUE(probe->is_probe());
  EXPECT_EQ(probe->value(), 0.0);
  backing = 7;  // no Set() call: the probe tracks the backing field
  EXPECT_EQ(probe->value(), 7.0);
  EXPECT_EQ(registry.ValueOf("node.queue.depth"), 7.0);
}

TEST(MetricRegistryTest, SnapshotIsNameOrderedAndComplete) {
  MetricRegistry registry("node");
  registry.AddCounter("z.last.total")->Increment(3);
  registry.AddGauge("a.first.depth")->Set(1.5);
  registry.AddEwma("m.middle.us")->Observe(10.0);
  std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "a.first.depth");
  EXPECT_EQ(snapshot[1].name, "m.middle.us");
  EXPECT_EQ(snapshot[2].name, "z.last.total");
  EXPECT_EQ(snapshot[0].kind, MetricKind::kGauge);
  EXPECT_EQ(snapshot[2].kind, MetricKind::kCounter);
  EXPECT_EQ(snapshot[2].value, 3.0);
  EXPECT_EQ(snapshot[2].count, 1);
}

TEST(MetricRegistryTest, ValidNamesAreLowercaseDotSeparated) {
  EXPECT_TRUE(MetricRegistry::IsValidName("repl.slave.apply_backlog"));
  EXPECT_TRUE(MetricRegistry::IsValidName("a.b"));
  EXPECT_TRUE(MetricRegistry::IsValidName("proxy.backend.3.outstanding"));
  EXPECT_FALSE(MetricRegistry::IsValidName(""));
  EXPECT_FALSE(MetricRegistry::IsValidName("single_segment"));
  EXPECT_FALSE(MetricRegistry::IsValidName("Upper.Case"));
  EXPECT_FALSE(MetricRegistry::IsValidName("a..b"));
  EXPECT_FALSE(MetricRegistry::IsValidName(".a.b"));
  EXPECT_FALSE(MetricRegistry::IsValidName("a.b."));
  EXPECT_FALSE(MetricRegistry::IsValidName("a.b-c"));
  EXPECT_FALSE(MetricRegistry::IsValidName("a b.c"));
}

TEST(MetricRegistryDeathTest, DuplicateAndMalformedRegistrationsAbort) {
  MetricRegistry registry("node");
  registry.AddCounter("node.ops.total");
  EXPECT_DEATH(registry.AddCounter("node.ops.total"), "already registered");
  // Deliberately malformed; built in a variable so the clouddb-metric-name
  // literal scan (rightly) has nothing to flag here.
  const std::string malformed = "NotAName";
  EXPECT_DEATH(registry.AddGauge(malformed),
               "not a lowercase dot-separated metric name");
}

TEST(MetricRegistryTest, MergeAddsCountersAndSumsGauges) {
  MetricRegistry a("node-a");
  a.AddCounter("node.ops.total")->Increment(10);
  a.AddGauge("node.queue.depth")->Set(2.0);
  MetricRegistry b("node-b");
  b.AddCounter("node.ops.total")->Increment(5);
  b.AddGauge("node.queue.depth")->Set(3.0);
  b.AddCounter("node.only_b.total")->Increment(1);

  MetricRegistry total("cluster");
  total.MergeFrom(a);
  total.MergeFrom(b);
  EXPECT_EQ(total.ValueOf("node.ops.total"), 15.0);
  EXPECT_EQ(total.ValueOf("node.queue.depth"), 5.0);
  EXPECT_EQ(total.ValueOf("node.only_b.total"), 1.0);
}

TEST(MetricRegistryTest, MergeFlattensProbesToPlainValues) {
  MetricRegistry source("node");
  int64_t backing = 9;
  source.AddProbe("node.queue.depth",
                  [&backing] { return static_cast<double>(backing); });
  MetricRegistry total("cluster");
  total.MergeFrom(source);
  backing = 100;  // merged copy sampled at merge time; must not follow
  const Gauge* merged = total.FindGauge("node.queue.depth");
  ASSERT_NE(merged, nullptr);
  EXPECT_FALSE(merged->is_probe());
  EXPECT_EQ(merged->value(), 9.0);
}

TEST(MetricRegistryTest, MergeCombinesEwmasCountWeighted) {
  MetricRegistry a("node-a");
  Ewma* ea = a.AddEwma("node.response_us", /*alpha=*/1.0);
  for (int i = 0; i < 3; ++i) ea->Observe(10.0);  // value 10, count 3
  MetricRegistry b("node-b");
  Ewma* eb = b.AddEwma("node.response_us", /*alpha=*/1.0);
  eb->Observe(50.0);  // value 50, count 1

  MetricRegistry total("cluster");
  total.MergeFrom(a);
  total.MergeFrom(b);
  const Ewma* merged = total.FindEwma("node.response_us");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count(), 4);
  // Count-weighted mean: (10*3 + 50*1) / 4 = 20.
  EXPECT_DOUBLE_EQ(merged->value(), 20.0);
}

TEST(MetricRegistryTest, ToStringIsDeterministicAcrossEqualRegistries) {
  auto build = [](MetricRegistry& r) {
    r.AddCounter("node.ops.total")->Increment(3);
    r.AddGauge("node.queue.depth")->Set(1.0);
    r.AddEwma("node.response_us")->Observe(25.0);
  };
  MetricRegistry a("node");
  MetricRegistry b("node");
  build(a);
  build(b);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_NE(a.ToString().find("node.ops.total"), std::string::npos);
}

}  // namespace
}  // namespace clouddb::metrics
