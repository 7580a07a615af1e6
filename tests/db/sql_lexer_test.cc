#include "db/sql_lexer.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace clouddb::db {
namespace {

std::vector<Token> MustTokenize(const std::string& sql) {
  auto r = Tokenize(sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(LexerTest, EmptyInputYieldsEnd) {
  auto tokens = MustTokenize("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitiveAndNormalized) {
  auto tokens = MustTokenize("select SeLeCt SELECT");
  ASSERT_EQ(tokens.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(tokens[static_cast<size_t>(i)].type, TokenType::kKeyword);
    EXPECT_EQ(tokens[static_cast<size_t>(i)].text, "SELECT");
  }
}

TEST(LexerTest, IdentifiersKeepTheirCase) {
  auto tokens = MustTokenize("MyTable my_col _x");
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "MyTable");
  EXPECT_EQ(tokens[1].text, "my_col");
  EXPECT_EQ(tokens[2].text, "_x");
}

TEST(LexerTest, IntegerLiterals) {
  auto tokens = MustTokenize("0 42 9223372036854775807");
  EXPECT_EQ(tokens[0].int_value, 0);
  EXPECT_EQ(tokens[1].int_value, 42);
  EXPECT_EQ(tokens[2].int_value, INT64_MAX);
  EXPECT_EQ(tokens[0].type, TokenType::kInteger);
}

// A number is a run of digits: a decimal point or an exponent ends it, so
// no text lexes as a fractional literal, and the parser rejects what is
// left.
TEST(LexerTest, NumbersAreIntegers) {
  auto tokens = MustTokenize("1.5 .5 1e3 2. -.5");
  const std::vector<std::pair<TokenType, std::string>> want = {
      {TokenType::kInteger, "1"},    {TokenType::kSymbol, "."},
      {TokenType::kInteger, "5"},    {TokenType::kSymbol, "."},
      {TokenType::kInteger, "5"},    {TokenType::kInteger, "1"},
      {TokenType::kIdentifier, "e3"}, {TokenType::kInteger, "2"},
      {TokenType::kSymbol, "."},     {TokenType::kSymbol, "-"},
      {TokenType::kSymbol, "."},     {TokenType::kInteger, "5"},
      {TokenType::kEnd, ""}};
  std::vector<std::pair<TokenType, std::string>> got;
  for (const Token& t : tokens) got.emplace_back(t.type, t.text);
  EXPECT_EQ(got, want);
}

// A '-' directly before a digit is the number's sign; anywhere else it
// stays a symbol, which the parser rejects.
TEST(LexerTest, SignedLiterals) {
  auto tokens = MustTokenize("-5 x-1 - 3 -9223372036854775808");
  ASSERT_EQ(tokens.size(), 7u);
  EXPECT_EQ(tokens[0].type, TokenType::kInteger);
  EXPECT_EQ(tokens[0].int_value, -5);
  EXPECT_EQ(tokens[0].text, "-5");
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[2].int_value, -1);
  EXPECT_TRUE(tokens[3].IsSymbol("-"));
  EXPECT_EQ(tokens[4].int_value, 3);
  EXPECT_EQ(tokens[5].int_value, INT64_MIN);
  auto r = Tokenize("SELECT -9223372036854775809");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("out of range at offset 7"),
            std::string::npos)
      << r.status().ToString();
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto tokens = MustTokenize("'hello' 'it''s' ''");
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].text, "hello");
  EXPECT_EQ(tokens[1].text, "it's");
  EXPECT_EQ(tokens[2].text, "");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("'oops").ok());
  EXPECT_FALSE(Tokenize("'trailing escape''").ok());
}

TEST(LexerTest, MultiCharSymbols) {
  auto tokens = MustTokenize("<= >= <> != < > = + - * / ( ) , .");
  EXPECT_EQ(tokens[0].text, "<=");
  EXPECT_EQ(tokens[1].text, ">=");
  EXPECT_EQ(tokens[2].text, "<>");
  EXPECT_EQ(tokens[3].text, "!=");
  EXPECT_EQ(tokens[4].text, "<");
  EXPECT_EQ(tokens[5].text, ">");
  for (size_t i = 0; i < 15; ++i) {
    EXPECT_EQ(tokens[i].type, TokenType::kSymbol);
  }
}

TEST(LexerTest, UnexpectedCharacterFails) {
  auto r = Tokenize("SELECT @ FROM t");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("@"), std::string::npos);
}

TEST(LexerTest, OffsetsPointIntoSource) {
  auto tokens = MustTokenize("ab  cd");
  EXPECT_EQ(tokens[0].offset, 0u);
  EXPECT_EQ(tokens[1].offset, 4u);
}

TEST(LexerTest, TokenPredicates) {
  auto tokens = MustTokenize("SELECT (");
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_FALSE(tokens[0].IsKeyword("FROM"));
  EXPECT_TRUE(tokens[1].IsSymbol("("));
  EXPECT_FALSE(tokens[1].IsKeyword("SELECT"));
}

TEST(LexerTest, FullStatementTokenStream) {
  auto tokens = MustTokenize(
      "INSERT INTO heartbeat (hb_id, ts) VALUES (7, NOW_MICROS())");
  // INSERT INTO heartbeat ( hb_id , ts ) VALUES ( 7 , NOW_MICROS ( ) ) END
  ASSERT_EQ(tokens.size(), 17u);
  EXPECT_TRUE(tokens[0].IsKeyword("INSERT"));
  EXPECT_EQ(tokens[2].text, "heartbeat");
  EXPECT_EQ(tokens[12].text, "NOW_MICROS");
  EXPECT_EQ(tokens[12].type, TokenType::kIdentifier);
}

}  // namespace
}  // namespace clouddb::db
