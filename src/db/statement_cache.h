#ifndef CLOUDDB_DB_STATEMENT_CACHE_H_
#define CLOUDDB_DB_STATEMENT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
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
/// Expr::kParameter placeholder. Shared (not cloned) across executions;
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
/// whitespace folded, identifier case preserved — aggregate output column
/// names echo the query's spelling, so folding identifiers could change
/// visible results).
///
/// Recency is tracked purely by list position maintained on each access —
/// no wall clock, no timestamps — so cache behavior is a deterministic
/// function of the statement sequence and replays identically across runs
/// and replicas (a hard requirement: the simulation's results must be
/// independent of host timing).
///
/// Only DML (SELECT/INSERT/UPDATE/DELETE) is cached. DDL and transaction
/// control bypass the cache, and executing DDL must call Invalidate().
class StatementCache {
 public:
  explicit StatementCache(size_t capacity = kDefaultCapacity);

  StatementCache(const StatementCache&) = delete;
  StatementCache& operator=(const StatementCache&) = delete;

  /// Tokenizes `sql`, computes its fingerprint, and returns the cached
  /// template plus this text's literal values. On a miss the literal-masked
  /// token stream is parsed and inserted first.
  ///
  /// Failure modes, on which CompileSql falls back to plain ParseSql
  /// (which reproduces byte-identical errors and behavior):
  ///  - NotSupported: statement shape is not cacheable (DDL, BEGIN/COMMIT/
  ///    ROLLBACK, empty input) or the template failed to parse.
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
  void RememberLast(const std::string& sql, const std::vector<Value>& params);

  struct Entry {
    std::string fingerprint;
    std::shared_ptr<const PreparedStatement> prepared;
  };

  size_t capacity_;
  // MRU at the front; index_ points into the list for O(1) touch.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  StatementCacheStats stats_;
  // Identical-text memo: when `sql` is byte-equal to the previous successful
  // Prepare, the fingerprint scan is skipped entirely and the remembered
  // entry and literal values are reused. Counts as a hit and touches the LRU
  // exactly like the scan path, so observable cache state is unchanged.
  bool has_last_ = false;
  std::string last_sql_;
  std::vector<Value> last_params_;
  std::list<Entry>::iterator last_it_;
};

/// One SQL text made executable: the statement cache's template with this
/// text's literals bound, or, when the cache is off or does not admit the
/// shape, a plain parse of the text. Copies share the template or the
/// parse, so one compiled statement can run on every replica, or wait
/// behind a queued CPU job, without a second parse.
class CompiledSql {
 public:
  explicit CompiledSql(PreparedCall call) : call_(std::move(call)) {}
  explicit CompiledSql(Statement parsed)
      : parsed_(std::make_shared<Statement>(std::move(parsed))) {}

  /// The AST either way: the template (literals as parameter slots) or the
  /// plain parse (literals inline).
  const Statement& statement() const {
    return call_.prepared != nullptr ? call_.prepared->statement : *parsed_;
  }
  /// The literals bound to the template's parameters; null for a plain
  /// parse.
  const std::vector<Value>* params() const {
    return call_.prepared != nullptr ? &call_.params : nullptr;
  }

 private:
  PreparedCall call_;                        // empty for a plain parse
  std::shared_ptr<const Statement> parsed_;  // null for a template
};

/// The one compile step every executor of SQL text shares (the database,
/// the slave apply loop, the cost estimate and the proxy's classifier):
/// `cache`'s template when `cache` is non-null (on) and admits the shape,
/// otherwise ParseSql. Any Prepare failure (an uncacheable shape, a
/// template that fails to parse, even a tokenizer error) falls back to the
/// plain parse, which reproduces cache-off behavior and error text byte for
/// byte. Fails only when the text does not parse.
Result<CompiledSql> CompileSql(StatementCache* cache, const std::string& sql);

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_STATEMENT_CACHE_H_
