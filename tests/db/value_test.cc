#include "db/value.h"

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
  EXPECT_DOUBLE_EQ(Value(3.5).AsDouble(), 3.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
  EXPECT_EQ(Value(std::string("s")).AsString(), "s");
}

TEST(ValueTest, CrossTypeNumericComparison) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_LT(Value(int64_t{2}), Value(2.5));
  EXPECT_GT(Value(3.1), Value(int64_t{3}));
}

TEST(ValueTest, TypeOrderingNullNumericString) {
  EXPECT_LT(Value::Null(), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{999999}), Value("a"));
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
                      LiteralCase{Value(2.5), "2.5"},
                      LiteralCase{Value("hello"), "'hello'"},
                      LiteralCase{Value("it's"), "'it''s'"},
                      LiteralCase{Value(""), "''"}));

TEST(ValueTest, DoubleLiteralKeepsDoubleness) {
  // 3.0 must not render as "3" (would re-lex as an integer).
  std::string lit = Value(3.0).ToSqlLiteral();
  EXPECT_NE(lit.find_first_of(".eE"), std::string::npos);
}

TEST(ValueTest, HashEqualValuesHashEqual) {
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(int64_t{5}).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  // int 1 and double 1.0 compare equal, so they must hash equal.
  EXPECT_EQ(Value(int64_t{1}).Hash(), Value(1.0).Hash());
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
