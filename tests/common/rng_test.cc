#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace clouddb {
namespace {

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

class RngUniformIntTest : public ::testing::TestWithParam<std::pair<int64_t, int64_t>> {};

TEST_P(RngUniformIntTest, StaysInRangeAndHitsEndpoints) {
  auto [lo, hi] = GetParam();
  Rng rng(99);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 20000; ++i) {
    int64_t v = rng.UniformInt(lo, hi);
    ASSERT_GE(v, lo);
    ASSERT_LE(v, hi);
    if (v == lo) hit_lo = true;
    if (v == hi) hit_hi = true;
  }
  if (hi - lo < 1000) {
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, RngUniformIntTest,
    ::testing::Values(std::make_pair<int64_t, int64_t>(0, 0),
                      std::make_pair<int64_t, int64_t>(0, 1),
                      std::make_pair<int64_t, int64_t>(-5, 5),
                      std::make_pair<int64_t, int64_t>(1, 100),
                      std::make_pair<int64_t, int64_t>(-1000000, 1000000)));

TEST(RngTest, UniformIntIsRoughlyUniform) {
  Rng rng(5);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<size_t>(rng.UniformInt(0, 9))];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 10 * 0.1);
  }
}

TEST(RngTest, ExponentialMeanCloseToRequested) {
  Rng rng(11);
  double sum = 0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / kDraws, 5.0, 0.1);
}

TEST(RngTest, ExponentialAlwaysNonNegative) {
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(rng.Exponential(1.0), 0.0);
  }
}

TEST(RngTest, NormalMomentsCloseToRequested) {
  Rng rng(13);
  const int kDraws = 200000;
  double sum = 0;
  double sq = 0;
  for (int i = 0; i < kDraws; ++i) {
    double v = rng.Normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / kDraws;
  double var = sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ClampedNormalRespectsBounds) {
  Rng rng(14);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.ClampedNormal(1.0, 0.5, 0.8, 1.2);
    ASSERT_GE(v, 0.8);
    ASSERT_LE(v, 1.2);
  }
}

TEST(RngTest, LogNormalMedianCloseToRequested) {
  Rng rng(15);
  std::vector<double> vals;
  for (int i = 0; i < 50001; ++i) vals.push_back(rng.LogNormal(3.0, 0.5));
  std::sort(vals.begin(), vals.end());
  EXPECT_NEAR(vals[vals.size() / 2], 3.0, 0.1);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(16);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFraction) {
  Rng rng(17);
  int heads = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Bernoulli(0.8)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / kDraws, 0.8, 0.01);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(21);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<size_t>(rng.WeightedIndex(weights))];
  }
  EXPECT_NEAR(counts[0], kDraws * 0.1, kDraws * 0.02);
  EXPECT_NEAR(counts[1], kDraws * 0.3, kDraws * 0.02);
  EXPECT_NEAR(counts[2], kDraws * 0.6, kDraws * 0.02);
}

TEST(RngTest, WeightedIndexSingleBucket) {
  Rng rng(22);
  std::vector<double> weights = {2.5};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.WeightedIndex(weights), 0);
  }
}

TEST(RngTest, ForkProducesDecorrelatedStreams) {
  Rng parent(33);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1.NextU64() == child2.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng a(33);
  Rng b(33);
  Rng ca = a.Fork(9);
  Rng cb = b.Fork(9);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(ca.NextU64(), cb.NextU64());
  }
}

}  // namespace
}  // namespace clouddb
