#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace clouddb {
namespace {

TEST(SampleTest, EmptySampleIsSafe) {
  Sample s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Median(), 0.0);
  EXPECT_EQ(s.StdDev(), 0.0);
  EXPECT_EQ(s.Min(), 0.0);
  EXPECT_EQ(s.Max(), 0.0);
}

TEST(SampleTest, EmptySamplePercentilesAndTrimsAreZero) {
  Sample s;
  EXPECT_EQ(s.Sum(), 0.0);
  EXPECT_EQ(s.Percentile(0.0), 0.0);
  EXPECT_EQ(s.Percentile(0.5), 0.0);
  EXPECT_EQ(s.Percentile(1.0), 0.0);
  EXPECT_EQ(s.TrimmedMean(0.05), 0.0);
  // Never NaN: the contract is an exact 0.0 on no data.
  EXPECT_FALSE(std::isnan(s.Mean()));
  EXPECT_FALSE(std::isnan(s.StdDev()));
}

TEST(SampleTest, SingleElementStatisticsAreThatElement) {
  Sample s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.Min(), 42.0);
  EXPECT_DOUBLE_EQ(s.Max(), 42.0);
  EXPECT_DOUBLE_EQ(s.Median(), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.25), 42.0);
  EXPECT_DOUBLE_EQ(s.TrimmedMean(0.05), 42.0);
  EXPECT_EQ(s.StdDev(), 0.0);
}

TEST(SampleTest, PercentileDegenerateQIsSafe) {
  Sample s;
  for (double v : {1.0, 2.0, 3.0}) s.Add(v);
  // Out-of-range and NaN q clamp instead of indexing out of bounds.
  EXPECT_DOUBLE_EQ(s.Percentile(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(2.0), 3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(std::nan("")), 1.0);
}

TEST(SampleTest, ClearResetsToEmpty) {
  Sample s;
  s.Add(1.0);
  s.Clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.Mean(), 0.0);
}

TEST(SampleTest, BasicMoments) {
  Sample s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.StdDev(), 2.0);  // classic population-stddev example
  EXPECT_EQ(s.Min(), 2.0);
  EXPECT_EQ(s.Max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(SampleTest, MedianOddAndEven) {
  Sample odd;
  for (double v : {3.0, 1.0, 2.0}) odd.Add(v);
  EXPECT_DOUBLE_EQ(odd.Median(), 2.0);

  Sample even;
  for (double v : {1.0, 2.0, 3.0, 4.0}) even.Add(v);
  EXPECT_DOUBLE_EQ(even.Median(), 2.5);
}

TEST(SampleTest, PercentileInterpolates) {
  Sample s;
  for (int i = 0; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 100.0);
  EXPECT_NEAR(s.Percentile(0.95), 95.0, 1e-9);
  EXPECT_NEAR(s.Percentile(0.5), 50.0, 1e-9);
}

TEST(SampleTest, TrimmedMeanDropsOutliers) {
  Sample s;
  // 18 well-behaved values plus two wild outliers.
  for (int i = 0; i < 18; ++i) s.Add(10.0);
  s.Add(100000.0);
  s.Add(-100000.0);
  // 5% two-sided trim on 20 samples drops exactly one from each end.
  EXPECT_DOUBLE_EQ(s.TrimmedMean(0.05), 10.0);
  EXPECT_NE(s.Mean(), 10.0);
}

TEST(SampleTest, TrimmedMeanZeroFractionIsMean) {
  Sample s;
  for (double v : {1.0, 2.0, 3.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.TrimmedMean(0.0), s.Mean());
}

TEST(SampleTest, TrimmedMeanTinySampleFallsBackToMean) {
  Sample s;
  s.Add(5.0);
  s.Add(100.0);
  EXPECT_DOUBLE_EQ(s.TrimmedMean(0.05), s.Mean());
}

TEST(SampleTest, AddAllAppends) {
  Sample s;
  s.AddAll({1.0, 2.0});
  s.AddAll({3.0});
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.Sum(), 6.0);
}

}  // namespace
}  // namespace clouddb
