#include "common/result.h"
#include "common/status.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace clouddb {
namespace {

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.status().message(), "nope");
}

TEST(ResultTest, ValueOrFallsBack) {
  Result<int> err(Status::Internal("x"));
  EXPECT_EQ(err.value_or(7), 7);
  Result<int> ok(3);
  EXPECT_EQ(ok.value_or(7), 3);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r->size(), 5u);
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Result<int> Doubled(int v) {
  CLOUDDB_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, AssignOrReturnHappyPath) {
  Result<int> r = Doubled(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  Result<int> r = Doubled(-1);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ResultTest, CopyableWhenValueCopyable) {
  Result<std::vector<int>> a(std::vector<int>{1, 2, 3});
  Result<std::vector<int>> b = a;
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->size(), 3u);
  EXPECT_EQ(a->size(), 3u);
}

}  // namespace
}  // namespace clouddb
