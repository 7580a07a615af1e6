#ifndef CLOUDDB_DB_STATEMENT_CACHE_H_
#define CLOUDDB_DB_STATEMENT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/sql_ast.h"
#include "db/sql_lexer.h"
#include "db/value.h"

namespace clouddb::db {

/// Reference fingerprint construction: the normalized fingerprint of a token
/// stream plus its literal values in token order. Every token is emitted
/// with a single trailing space, so the fingerprint is whitespace-folded and
/// unambiguous (no token contains a space). Literals of any type collapse to
/// `?` — the literal's type travels with the bound value, not the shape.
/// The cache's hot path uses the fused single-pass FingerprintSql scan
/// (sql_lexer.h); tests assert the two constructions agree.
std::string FingerprintTokens(const std::vector<Token>& tokens,
                              std::vector<Value>* params);

/// Counters exposed for benchmarks, the Cloudstone report, and tests.
struct StatementCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;          // fingerprint absent; template parsed+inserted
  int64_t evictions = 0;       // LRU capacity evictions
  int64_t invalidations = 0;   // entries dropped by Invalidate() (DDL)
  int64_t bypasses = 0;        // statements not eligible for caching
};

/// A parsed statement template: the AST with every literal replaced by an
/// Operand::kParameter placeholder. Shared (not cloned) across executions;
/// immutable after insertion. Held by shared_ptr so an execution queued
/// behind the CPU scheduler survives eviction or DDL invalidation of its
/// cache entry.
struct PreparedStatement {
  std::string fingerprint;
  Statement statement;
  size_t param_count = 0;
};

/// One executable call: a template plus the literal values extracted from a
/// concrete SQL text, bound positionally to the template's parameters.
struct PreparedCall {
  std::shared_ptr<const PreparedStatement> prepared;
  std::vector<Value> params;
};

/// Deterministic LRU cache of parsed statement templates keyed on a
/// normalized fingerprint (literals masked to `?`, keyword case and
/// whitespace folded, identifier case preserved — error texts echo the
/// query's spelling of a table or column name, so folding identifiers could
/// change visible results).
///
/// Recency is tracked purely by list position maintained on each access —
/// no wall clock, no timestamps — so cache behavior is a deterministic
/// function of the statement sequence and replays identically across runs
/// and replicas (a hard requirement: the simulation's results must be
/// independent of host timing).
///
/// Only SELECT and INSERT are cached. DDL bypasses the cache, and executing
/// DDL must call Invalidate().
class StatementCache {
 public:
  explicit StatementCache(size_t capacity = kDefaultCapacity);

  StatementCache(const StatementCache&) = delete;
  StatementCache& operator=(const StatementCache&) = delete;

  /// Scans `sql` once for its fingerprint and literal values, and returns
  /// the cached template plus those values. On a miss the text is tokenized
  /// and the literal-masked token stream is parsed and inserted first.
  ///
  /// Failure modes, on which CompileSql falls back to plain ParseSql
  /// (which reproduces byte-identical errors and behavior):
  ///  - NotSupported: statement shape is not cacheable (DDL, empty input)
  ///    or the template failed to parse.
  ///  - any tokenizer error, returned verbatim.
  Result<PreparedCall> Prepare(const std::string& sql);

  /// Drops every entry (DDL changed the catalog under the cached plans).
  void Invalidate();

  size_t size() const { return lru_.size(); }
  size_t capacity() const { return capacity_; }
  const StatementCacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = StatementCacheStats{}; }

  /// Fingerprints in most-recently-used order (test hook for LRU behavior).
  std::vector<std::string> FingerprintsByRecency() const;

  static constexpr size_t kDefaultCapacity = 256;

 private:
  struct Entry {
    std::string fingerprint;
    std::shared_ptr<const PreparedStatement> prepared;
  };

  size_t capacity_;
  // MRU at the front; index_ points into the list for O(1) touch.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  StatementCacheStats stats_;
};

/// One SQL text made executable, compiled once where it enters the tier:
/// the proxy's compile runs on the replica that serves the op, and the
/// master's compile of a committed write runs on every slave. It keeps the
/// text (what the network charges and the binlog logs) and one form of it:
/// the statement cache's template with this text's literals bound; a plain
/// parse when the cache is off or does not admit the shape; or, for a text
/// that does not parse, the parse error, which executing it returns. Built
/// by CompileSql and passed on as `std::shared_ptr<const CompiledSql>`, so
/// one compile can wait behind a queued CPU job, or run on every replica,
/// without a second one.
class CompiledSql {
 public:
  CompiledSql(std::string text, PreparedCall call)
      : text_(std::move(text)), form_(std::move(call)) {}
  CompiledSql(std::string text, Statement parsed)
      : text_(std::move(text)),
        form_(std::make_unique<const Statement>(std::move(parsed))) {}
  CompiledSql(std::string text, Status parse_error)
      : text_(std::move(text)), form_(std::move(parse_error)) {}

  const std::string& text() const { return text_; }
  /// False when the text does not parse; status() is then the error.
  bool ok() const { return !std::holds_alternative<Status>(form_); }
  Status status() const {
    return ok() ? Status::Ok() : std::get<Status>(form_);
  }
  /// The AST (requires ok()): the template (literals as parameter slots) or
  /// the plain parse (literals inline).
  const Statement& statement() const {
    const auto* call = std::get_if<PreparedCall>(&form_);
    return call != nullptr
               ? call->prepared->statement
               : *std::get<std::unique_ptr<const Statement>>(form_);
  }
  /// The literals bound to the template's parameters; null for a plain
  /// parse.
  const std::vector<Value>* params() const {
    const auto* call = std::get_if<PreparedCall>(&form_);
    return call != nullptr ? &call->params : nullptr;
  }

 private:
  std::string text_;
  // A plain parse lives apart, so the common template form stays small: a
  // compiled statement is held for as long as its op or event is in flight.
  std::variant<PreparedCall, std::unique_ptr<const Statement>, Status> form_;
};

/// The one compile step: `cache`'s template when `cache` is non-null (on)
/// and admits the shape, otherwise ParseSql. Any Prepare failure (an
/// uncacheable shape, a template that fails to parse, even a tokenizer
/// error) falls back to the plain parse, which reproduces cache-off
/// behavior and error text byte for byte. A text that does not parse
/// compiles to that parse error (ok() is false), so it travels like any
/// statement and fails where it executes.
std::shared_ptr<const CompiledSql> CompileSql(StatementCache* cache,
                                              std::string sql);

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_STATEMENT_CACHE_H_
