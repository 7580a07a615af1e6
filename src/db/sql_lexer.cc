#include "db/sql_lexer.h"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "common/result.h"
#include "common/status.h"
#include "db/value.h"

namespace clouddb::db {

namespace {

// Every SQL keyword is pure letters, so the keyword probe can walk a flat
// A–Z trie with case folding done on the fly — one pass over the source
// bytes, no uppercase scratch copy and no hashing. A terminal node holds
// the canonical uppercase spelling (a string literal), which doubles as the
// "is a keyword" answer and the token text.
class KeywordTrie {
 public:
  KeywordTrie() {
    static const char* const kKeywords[] = {
        "CREATE", "TABLE",  "INDEX", "ON",    "INSERT",  "INTO",
        "VALUES", "SELECT", "FROM",  "WHERE", "ORDER",   "BY",
        "LIMIT",  "AND",    "NOT",   "NULL",  "PRIMARY", "KEY",
        "INT",    "BIGINT", "TEXT",  "COUNT",
    };
    nodes_.emplace_back();  // root
    for (const char* kw : kKeywords) Insert(kw);
  }

  /// Returns the canonical uppercase spelling when `word` is a keyword
  /// (matched case-insensitively), nullptr otherwise.
  const char* Match(const char* word, size_t len) const {
    if (len > kMaxKeywordLen) return nullptr;
    int node = 0;
    for (size_t k = 0; k < len; ++k) {
      char c = word[k];
      if (c >= 'a' && c <= 'z') c = static_cast<char>(c - ('a' - 'A'));
      if (c < 'A' || c > 'Z') return nullptr;  // digits/_ never in keywords
      node = nodes_[static_cast<size_t>(node)].next[c - 'A'];
      if (node == 0) return nullptr;
    }
    return nodes_[static_cast<size_t>(node)].canonical;
  }

  /// Longest keyword ("PRIMARY"); longer words skip the walk entirely.
  static constexpr size_t kMaxKeywordLen = 7;

 private:
  struct Node {
    // Child index per letter; 0 (the root, never a child) means "none".
    int16_t next[26] = {};
    const char* canonical = nullptr;
  };

  void Insert(const char* kw) {
    int node = 0;
    for (const char* p = kw; *p != '\0'; ++p) {
      int c = *p - 'A';
      if (nodes_[static_cast<size_t>(node)].next[c] == 0) {
        nodes_[static_cast<size_t>(node)].next[c] =
            static_cast<int16_t>(nodes_.size());
        nodes_.emplace_back();
      }
      node = nodes_[static_cast<size_t>(node)].next[c];
    }
    nodes_[static_cast<size_t>(node)].canonical = kw;
  }

  std::vector<Node> nodes_;
};

const KeywordTrie& Keywords() {
  static const auto* kTrie = new KeywordTrie();
  return *kTrie;
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool IsDigitAt(const std::string& sql, size_t k) {
  return k < sql.size() && std::isdigit(static_cast<unsigned char>(sql[k]));
}

/// The one lexical scan of SQL text, shared by Tokenize and FingerprintSql.
/// Skips whitespace and hands each lexeme, with its source offset, to
/// `sink`:
///   Word(type, start, text)       keyword (canonical uppercase spelling),
///                                 identifier or symbol, as emitted;
///   Integer(start, text, value);
///   String(start, value)          quotes stripped, '' unescaped.
/// Returns the first lexical error; the sink has then seen a prefix.
template <typename Sink>
Status ScanSql(const std::string& sql, Sink* sink) {
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    const size_t start = i;
    if (IsIdentStart(c)) {
      while (i < n && IsIdentChar(sql[i])) ++i;
      const size_t len = i - start;
      const char* keyword = Keywords().Match(sql.data() + start, len);
      if (keyword != nullptr) {
        sink->Word(TokenType::kKeyword, start, std::string_view(keyword, len));
      } else {
        sink->Word(TokenType::kIdentifier, start,
                   std::string_view(sql.data() + start, len));
      }
      continue;
    }
    // A number is a run of digits; the grammar has no binary minus, so a '-'
    // directly before a digit is the number's sign: "-5" is one literal, and
    // shares its fingerprint with "5". There is no fraction or exponent:
    // "1.5" lexes as 1 . 5 and "1e3" as 1 e3, which the parser rejects.
    if (IsDigitAt(sql, i) || (c == '-' && IsDigitAt(sql, i + 1))) {
      if (c == '-') ++i;
      while (IsDigitAt(sql, i)) ++i;
      // strtoll stops at exactly the character the scan above stopped at, so
      // it parses in place from the source buffer.
      errno = 0;
      int64_t v = std::strtoll(sql.c_str() + start, nullptr, 10);
      if (errno == ERANGE) {
        return Status::InvalidArgument(
            StrFormat("integer literal out of range at offset %zu", start));
      }
      sink->Integer(start, std::string_view(sql.data() + start, i - start), v);
      continue;
    }
    if (c == '\'') {
      std::string value;
      bool closed = false;
      ++i;
      // Copy whole runs up to each quote instead of byte-at-a-time appends.
      while (i < n) {
        size_t quote = sql.find('\'', i);
        if (quote == std::string::npos) break;  // unterminated
        value.append(sql, i, quote - i);
        i = quote + 1;
        if (i < n && sql[i] == '\'') {  // '' escape
          value += '\'';
          ++i;
          continue;
        }
        closed = true;
        break;
      }
      if (!closed) {
        return Status::InvalidArgument(
            StrFormat("unterminated string literal at offset %zu", start));
      }
      sink->String(start, std::move(value));
      continue;
    }
    // Two-character symbols first: <= >= != <>. Symbols the grammar has no
    // use for (!= <> + - / .) still lex, so a statement using one fails in
    // the parser, which names the offending token.
    const char next = i + 1 < n ? sql[i + 1] : '\0';
    size_t len = 1;
    if ((next == '=' && (c == '<' || c == '>' || c == '!')) ||
        (c == '<' && next == '>')) {
      len = 2;
    } else if (std::string_view("(),*=<>+-/.;").find(c) ==
               std::string_view::npos) {
      return Status::InvalidArgument(
          StrFormat("unexpected character '%c' at offset %zu", c, start));
    }
    sink->Word(TokenType::kSymbol, start,
               std::string_view(sql.data() + start, len));
    i += len;
  }
  return Status::Ok();
}

/// Tokenize's sink: one Token per lexeme.
struct TokenSink {
  void Word(TokenType type, size_t start, std::string_view text) {
    out->push_back(Token{type, std::string(text), 0, start});
  }
  void Integer(size_t start, std::string_view text, int64_t v) {
    out->push_back(Token{TokenType::kInteger, std::string(text), v, start});
  }
  void String(size_t start, std::string value) {
    out->push_back(Token{TokenType::kString, std::move(value), 0, start});
  }

  std::vector<Token>* out;
};

/// FingerprintSql's sink: appends each lexeme's text and one space to the
/// fingerprint; a literal appends `?` and its value to `params`.
struct FingerprintSink {
  void Word(TokenType, size_t, std::string_view text) {
    fp->append(text);
    *fp += ' ';
  }
  void Integer(size_t, std::string_view, int64_t v) { Literal(v); }
  void String(size_t, std::string value) { Literal(std::move(value)); }
  /// Builds the Value in place in `params`: a moved temporary Value draws
  /// GCC 12 -Wmaybe-uninitialized reports from its variant move.
  template <typename T>
  void Literal(T&& v) {
    params->emplace_back(std::forward<T>(v));
    *fp += "? ";
  }

  std::string* fp;
  std::vector<Value>* params;
};

}  // namespace

bool Token::IsKeyword(const char* kw) const {
  return type == TokenType::kKeyword && text == kw;
}

bool Token::IsSymbol(const char* sym) const {
  return type == TokenType::kSymbol && text == sym;
}

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> out;
  // Tokens average a handful of bytes of source each; one upfront reservation
  // avoids the O(log n) vector regrowths per statement.
  out.reserve(sql.size() / 4 + 4);
  TokenSink sink{&out};
  CLOUDDB_RETURN_IF_ERROR(ScanSql(sql, &sink));
  out.push_back(Token{TokenType::kEnd, std::string(), 0, sql.size()});
  return out;
}

Result<std::string> FingerprintSql(const std::string& sql,
                                   std::vector<Value>* params) {
  std::string fp;
  // Every source byte maps to at most one fingerprint byte plus the token
  // separators; sql.size() + a small slack avoids regrowth.
  fp.reserve(sql.size() + 8);
  FingerprintSink sink{&fp, params};
  CLOUDDB_RETURN_IF_ERROR(ScanSql(sql, &sink));
  return fp;
}

}  // namespace clouddb::db
