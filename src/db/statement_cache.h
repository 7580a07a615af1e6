#ifndef CLOUDDB_DB_STATEMENT_CACHE_H_
#define CLOUDDB_DB_STATEMENT_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/sql_ast.h"
#include "db/value.h"

namespace clouddb::db {

/// Counters exposed for benchmarks, the Cloudstone report, and tests.
struct StatementCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;    // fingerprint absent; parsed and remembered
  int64_t bypasses = 0;  // DDL, and texts that lex but do not parse
};

/// A memo of parsed statement templates keyed on the normalized fingerprint
/// of FingerprintSql (literals masked to `?`, keyword case and whitespace
/// folded, identifier case preserved — error texts echo the query's spelling
/// of a table or column name, so folding identifiers could change visible
/// results). It is a map keyed by the fingerprint, with no recency and no
/// bound, so its behavior is a deterministic function of the statement
/// sequence and replays identically across runs and replicas.
///
/// Only SELECT and INSERT are remembered. DDL is parsed and not remembered.
/// Nothing is ever dropped: a template holds table and column names, not
/// catalog slots or a plan, and each execution resolves them and chooses its
/// access path against the catalog it runs on, so no DDL and no replica copy
/// can make a remembered template wrong.
class StatementCache {
 public:
  StatementCache() = default;

  StatementCache(const StatementCache&) = delete;
  StatementCache& operator=(const StatementCache&) = delete;

  /// Scans `sql` once for its fingerprint and literal values; a hit returns
  /// the remembered template with those values. A miss returns ParseSql's
  /// result, remembering its template when it parses and is not DDL. Either
  /// way the result, errors included, is ParseSql's.
  Result<PreparedCall> Prepare(const std::string& sql);

  size_t size() const { return templates_.size(); }
  const StatementCacheStats& stats() const { return stats_; }

 private:
  std::unordered_map<std::string, std::shared_ptr<const Statement>>
      templates_;
  StatementCacheStats stats_;
};

/// One SQL text made executable, compiled once where it enters the tier:
/// the proxy's compile runs on the replica that serves the op, and the
/// master's compile of a committed write runs on every slave. It keeps the
/// text (what the network charges and the binlog logs) and either the
/// template with this text's literals bound or, for a text that does not
/// parse, the parse error, which executing it returns. Built by CompileSql
/// and passed on as `std::shared_ptr<const CompiledSql>`, so one compile can
/// wait behind a queued CPU job, or run on every replica, without a second
/// one.
class CompiledSql {
 public:
  CompiledSql(std::string text, PreparedCall call)
      : text_(std::move(text)), form_(std::move(call)) {}
  CompiledSql(std::string text, Status parse_error)
      : text_(std::move(text)), form_(std::move(parse_error)) {}

  const std::string& text() const { return text_; }
  /// False when the text does not parse; status() is then the error.
  bool ok() const { return std::holds_alternative<PreparedCall>(form_); }
  Status status() const {
    return ok() ? Status::Ok() : std::get<Status>(form_);
  }
  /// The template (requires ok()): literals are parameter slots.
  const Statement& statement() const {
    return *std::get<PreparedCall>(form_).statement;
  }
  /// The literals bound to the template's parameters (requires ok()).
  const std::vector<Value>& params() const {
    return std::get<PreparedCall>(form_).params;
  }

 private:
  std::string text_;
  std::variant<PreparedCall, Status> form_;
};

/// The one compile step: `cache`'s Prepare when `cache` is non-null (on),
/// otherwise ParseSql; both give the same template, values and errors. A
/// text that does not parse compiles to that parse error (ok() is false),
/// so it travels like any statement and fails where it executes.
std::shared_ptr<const CompiledSql> CompileSql(StatementCache* cache,
                                              std::string sql);

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_STATEMENT_CACHE_H_
