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
  kDouble,      // floating-point literal, signed the same way
  kString,      // 'single quoted', '' escapes a quote
  kSymbol,      // ( ) , * = != <> < <= > >= + - / . ;
  kParameter,   // `?` placeholder — never produced by Tokenize; synthesized
                // by the statement cache when masking literals (int_value
                // holds the parameter slot)
  kEnd,         // end of input
};

struct Token {
  TokenType type;
  std::string text;   // keyword/symbol spelling or identifier/literal text
  int64_t int_value = 0;
  double double_value = 0.0;
  size_t offset = 0;  // byte offset in the source, for error messages

  bool IsKeyword(const char* kw) const;
  bool IsSymbol(const char* sym) const;
};

/// Tokenizes `sql`. Keywords are case-insensitive. Returns the token list
/// terminated by a kEnd token, or an error pointing at the offending byte.
Result<std::vector<Token>> Tokenize(const std::string& sql);

/// Fingerprint scan: the statement cache's hit path. Produces exactly the
/// fingerprint the cache would build by tokenizing and masking (every token
/// uppercased-if-keyword and emitted with one trailing space; literals
/// collapse to `?` with their values appended to `params` in token order) —
/// but without materializing a token vector, so a cache hit costs one scan
/// over the text. It runs Tokenize's scan with a different sink, so lexical
/// errors are byte-identical to Tokenize's. Equivalence with the token-based
/// construction is enforced by tests (statement_cache_test).
Result<std::string> FingerprintSql(const std::string& sql,
                                   std::vector<Value>* params);

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_SQL_LEXER_H_
