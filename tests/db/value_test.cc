#include "db/value.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace clouddb::db {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value(int64_t{42}).AsInt64(), 42);
  EXPECT_EQ(Value("hi").AsString(), "hi");
  EXPECT_EQ(Value(std::string("s")).AsString(), "s");
}

TEST(ValueTest, TypeOrderingNullNumericString) {
  EXPECT_LT(Value::Null(), Value(int64_t{0}));
  EXPECT_LT(Value::Null(), Value(INT64_MIN));
  EXPECT_LT(Value(int64_t{999999}), Value("a"));
  EXPECT_LT(Value(INT64_MAX), Value(""));
  EXPECT_LT(Value::Null(), Value(""));
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_LT(Value("ab"), Value("abc"));
  EXPECT_EQ(Value("x"), Value("x"));
}

TEST(ValueTest, NullsCompareEqualForOrdering) {
  EXPECT_EQ(Value::Compare(Value::Null(), Value::Null()), 0);
}

struct LiteralCase {
  Value value;
  const char* literal;
};

class SqlLiteralTest : public ::testing::TestWithParam<LiteralCase> {};

TEST_P(SqlLiteralTest, Renders) {
  EXPECT_EQ(GetParam().value.ToSqlLiteral(), GetParam().literal);
}

INSTANTIATE_TEST_SUITE_P(
    Literals, SqlLiteralTest,
    ::testing::Values(LiteralCase{Value::Null(), "NULL"},
                      LiteralCase{Value(int64_t{42}), "42"},
                      LiteralCase{Value(int64_t{-7}), "-7"},
                      LiteralCase{Value("hello"), "'hello'"},
                      LiteralCase{Value("it's"), "'it''s'"},
                      LiteralCase{Value(""), "''"}));

TEST(ValueTest, HashEqualValuesHashEqual) {
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(int64_t{5}).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
}

TEST(ValueTest, HashMostlyDistinct) {
  EXPECT_NE(Value(int64_t{1}).Hash(), Value(int64_t{2}).Hash());
  EXPECT_NE(Value("a").Hash(), Value("b").Hash());
  EXPECT_NE(Value::Null().Hash(), Value(int64_t{0}).Hash());
}

TEST(ValueTest, RowToStringFormatsTuple) {
  Row row = {Value(int64_t{1}), Value("x"), Value::Null()};
  EXPECT_EQ(RowToString(row), "(1, 'x', NULL)");
  EXPECT_EQ(RowToString({}), "()");
}

}  // namespace
}  // namespace clouddb::db
