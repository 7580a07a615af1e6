#include "db/schema.h"
#include "db/value.h"

#include <gtest/gtest.h>

namespace clouddb::db {
namespace {

Schema MakeSchema() {
  auto schema = Schema::Create({
      {"id", ValueType::kInt64, false, true},
      {"name", ValueType::kString, true, false},
      {"score", ValueType::kInt64, false, false},
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

TEST(SchemaTest, CreateValidSchema) {
  Schema s = MakeSchema();
  EXPECT_EQ(s.num_columns(), 3u);
  ASSERT_TRUE(s.primary_key_index().has_value());
  EXPECT_EQ(*s.primary_key_index(), 0u);
  // PK implies NOT NULL.
  EXPECT_TRUE(s.columns()[0].not_null);
}

TEST(SchemaTest, RejectsEmptyColumnList) {
  EXPECT_FALSE(Schema::Create({}).ok());
}

TEST(SchemaTest, RejectsDuplicateNamesCaseInsensitive) {
  auto r = Schema::Create({{"id", ValueType::kInt64, false, false},
                           {"ID", ValueType::kString, false, false}});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(SchemaTest, RejectsTwoPrimaryKeys) {
  auto r = Schema::Create({{"a", ValueType::kInt64, false, true},
                           {"b", ValueType::kInt64, false, true}});
  EXPECT_FALSE(r.ok());
}

TEST(SchemaTest, RejectsNullType) {
  auto r = Schema::Create({{"a", ValueType::kNull, false, false}});
  EXPECT_FALSE(r.ok());
}

TEST(SchemaTest, RejectsEmptyName) {
  auto r = Schema::Create({{"", ValueType::kInt64, false, false}});
  EXPECT_FALSE(r.ok());
}

TEST(SchemaTest, ColumnIndexIsCaseInsensitive) {
  Schema s = MakeSchema();
  ASSERT_TRUE(s.ColumnIndex("NAME").ok());
  EXPECT_EQ(*s.ColumnIndex("NAME"), 1u);
  EXPECT_FALSE(s.ColumnIndex("missing").ok());
}

TEST(SchemaTest, ValidateRowHappyPath) {
  Schema s = MakeSchema();
  EXPECT_TRUE(
      s.ValidateRow({Value(int64_t{1}), Value("x"), Value(int64_t{2})}).ok());
  // Nullable column may be null.
  EXPECT_TRUE(
      s.ValidateRow({Value(int64_t{1}), Value("x"), Value::Null()}).ok());
}

TEST(SchemaTest, ValidateRowRejectsArityMismatch) {
  Schema s = MakeSchema();
  EXPECT_FALSE(s.ValidateRow({Value(int64_t{1})}).ok());
  EXPECT_FALSE(s.ValidateRow({}).ok());
}

TEST(SchemaTest, ValidateRowRejectsNullInNotNull) {
  Schema s = MakeSchema();
  EXPECT_FALSE(
      s.ValidateRow({Value::Null(), Value("x"), Value(int64_t{1})}).ok());
  EXPECT_FALSE(
      s.ValidateRow({Value(int64_t{1}), Value::Null(), Value(int64_t{1})})
          .ok());
}

TEST(SchemaTest, ValidateRowRejectsTypeMismatch) {
  Schema s = MakeSchema();
  // A string where an integer is declared, and an integer where a string
  // is: no value changes type on the way in.
  EXPECT_FALSE(
      s.ValidateRow({Value("str"), Value("x"), Value(int64_t{1})}).ok());
  EXPECT_FALSE(
      s.ValidateRow({Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{1})})
          .ok());
  EXPECT_FALSE(s.ValidateRow({Value(int64_t{1}), Value("x"), Value("3")}).ok());
}

}  // namespace
}  // namespace clouddb::db
