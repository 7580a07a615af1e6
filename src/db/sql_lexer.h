#ifndef CLOUDDB_DB_SQL_LEXER_H_
#define CLOUDDB_DB_SQL_LEXER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/value.h"

namespace clouddb::db {

/// Token kinds produced by the SQL lexer.
enum class TokenType {
  kKeyword,     // recognized SQL keyword, normalized to upper case
  kIdentifier,  // table/column/index names
  kInteger,     // 64-bit integer literal; a '-' written before it is its sign
  kString,      // 'single quoted', '' escapes a quote
  kSymbol,      // ( ) , * = != <> < <= > >= + - / . ;
  kEnd,         // end of input
};

struct Token {
  TokenType type;
  std::string text;   // keyword/symbol spelling or identifier/literal text
  int64_t int_value = 0;
  size_t offset = 0;  // byte offset in the source, for error messages

  bool IsKeyword(const char* kw) const;
  bool IsSymbol(const char* sym) const;
};

/// Tokenizes `sql`. Keywords are case-insensitive. Returns the token list
/// terminated by a kEnd token, or an error pointing at the offending byte.
Result<std::vector<Token>> Tokenize(const std::string& sql);

/// Fingerprint scan: the statement cache's key and its hit path. Emits each
/// token's text (a keyword's in upper case) with one trailing space, except
/// that every literal collapses to `?` and its value is appended to
/// `params`: in text order, so the values are exactly the parameters
/// ParseSql numbers. No token vector is built, so a cache hit costs one scan
/// over the text. It runs Tokenize's scan with a different sink, so lexical
/// errors are byte-identical to Tokenize's.
Result<std::string> FingerprintSql(const std::string& sql,
                                   std::vector<Value>* params);

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_SQL_LEXER_H_
