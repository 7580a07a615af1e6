#include "db/statement_cache.h"

#include <memory>
#include <string>
#include <utility>

#include "db/sql_lexer.h"
#include "db/sql_parser.h"
#include "common/result.h"
#include "common/status.h"
#include "db/sql_ast.h"
#include "db/value.h"

namespace clouddb::db {

namespace {

/// True when the fingerprint's leading token can begin a cacheable
/// statement. Everything else (DDL, garbage) takes the plain parse path so
/// its behavior — including error text — is identical with the cache off.
/// The check is exact: keywords are uppercased in the fingerprint and every
/// token carries a trailing space, so an identifier spelled "selectx"
/// ("selectx ") can never match "SELECT ".
bool CacheableFingerprint(const std::string& fp) {
  auto starts_with = [&](const char* prefix) {
    return fp.compare(0, std::char_traits<char>::length(prefix), prefix) == 0;
  };
  return starts_with("SELECT ") || starts_with("INSERT ");
}

bool IsLiteralToken(const Token& t) {
  return t.type == TokenType::kInteger || t.type == TokenType::kDouble ||
         t.type == TokenType::kString;
}

}  // namespace

std::string FingerprintTokens(const std::vector<Token>& tokens,
                              std::vector<Value>* params) {
  std::string fp;
  fp.reserve(tokens.size() * 6);
  for (const Token& t : tokens) {
    switch (t.type) {
      case TokenType::kInteger:
        params->emplace_back(t.int_value);
        fp += "? ";
        break;
      case TokenType::kDouble:
        params->emplace_back(t.double_value);
        fp += "? ";
        break;
      case TokenType::kString:
        params->emplace_back(t.text);
        fp += "? ";
        break;
      case TokenType::kEnd:
        break;
      default:
        fp += t.text;
        fp += ' ';
        break;
    }
  }
  return fp;
}

namespace {

/// The token stream with each literal replaced by a kParameter token whose
/// int_value is the parameter slot. Offsets are preserved so parse errors in
/// the template (which are rare — the caller falls back on them) still point
/// at the original source.
std::vector<Token> MaskLiterals(const std::vector<Token>& tokens) {
  std::vector<Token> masked;
  masked.reserve(tokens.size());
  int64_t next_param = 0;
  for (const Token& t : tokens) {
    if (IsLiteralToken(t)) {
      masked.push_back(
          Token{TokenType::kParameter, "?", next_param++, 0.0, t.offset});
    } else {
      masked.push_back(t);
    }
  }
  return masked;
}

}  // namespace

StatementCache::StatementCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

Result<PreparedCall> StatementCache::Prepare(const std::string& sql) {
  // Hit path: one fused scan over the text — no token vector, no parse.
  std::vector<Value> params;
  CLOUDDB_ASSIGN_OR_RETURN(std::string fingerprint,
                           FingerprintSql(sql, &params));
  if (!CacheableFingerprint(fingerprint)) {
    ++stats_.bypasses;
    return Status::NotSupported("statement shape not cacheable");
  }

  auto it = index_.find(fingerprint);
  if (it != index_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to MRU
    return PreparedCall{it->second->prepared, std::move(params)};
  }

  // Miss: tokenize for real and parse the literal-masked token stream into a
  // reusable template. (The fingerprint scan above already validated the
  // text lexically, so Tokenize cannot fail here.)
  CLOUDDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Result<Statement> parsed = ParseTokens(MaskLiterals(tokens));
  if (!parsed.ok()) {
    // Malformed SQL (or a shape the masked grammar cannot express). Let the
    // caller re-parse the original text so the reported error is
    // byte-identical to the cache-off path.
    ++stats_.bypasses;
    return Status::NotSupported("statement template failed to parse");
  }
  ++stats_.misses;
  auto prepared = std::make_shared<PreparedStatement>();
  prepared->fingerprint = fingerprint;
  prepared->statement = std::move(*parsed);
  prepared->param_count = params.size();

  lru_.push_front(Entry{fingerprint, std::move(prepared)});
  index_.emplace(std::move(fingerprint), lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().fingerprint);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return PreparedCall{lru_.front().prepared, std::move(params)};
}

void StatementCache::Invalidate() {
  stats_.invalidations += static_cast<int64_t>(lru_.size());
  index_.clear();
  lru_.clear();
}

std::vector<std::string> StatementCache::FingerprintsByRecency() const {
  std::vector<std::string> out;
  out.reserve(lru_.size());
  for (const Entry& e : lru_) out.push_back(e.fingerprint);
  return out;
}

std::shared_ptr<const CompiledSql> CompileSql(StatementCache* cache,
                                              std::string sql) {
  if (cache != nullptr) {
    Result<PreparedCall> call = cache->Prepare(sql);
    if (call.ok()) {
      return std::make_shared<const CompiledSql>(std::move(sql),
                                                 std::move(*call));
    }
  }
  Result<Statement> parsed = ParseSql(sql);
  if (!parsed.ok()) {
    return std::make_shared<const CompiledSql>(std::move(sql),
                                               parsed.status());
  }
  return std::make_shared<const CompiledSql>(std::move(sql),
                                             std::move(*parsed));
}

}  // namespace clouddb::db
