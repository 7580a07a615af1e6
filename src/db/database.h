#ifndef CLOUDDB_DB_DATABASE_H_
#define CLOUDDB_DB_DATABASE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/binlog.h"
#include "db/statement_cache.h"
#include "db/table.h"
#include "db/value.h"

namespace clouddb::db {

/// Result of executing one statement.
struct ExecResult {
  std::vector<std::string> column_names;  // SELECT only
  std::vector<Row> rows;                  // SELECT only
  int64_t rows_affected = 0;              // writes: rows touched
  int64_t rows_examined = 0;              // rows visited while planning/filtering
  std::string plan;  // access path chosen: "pk_eq", "index_range(col)", ...
  /// Column whose index supplied the rows in ascending order (empty for
  /// table scans). Lets ORDER BY on that column skip sorting.
  std::string scan_ordered_by;
};

/// Engine configuration.
struct DatabaseOptions {
  /// Clock behind NOW_MICROS(). Replication nodes bind this to their
  /// instance's drifting local clock; defaults to a constant-0 source.
  std::function<int64_t()> now_micros;

  /// Whether committed write statements are appended to the binlog. Masters
  /// keep this on; slaves apply replicated events with logging off
  /// (MySQL's default: no log-slave-updates).
  bool enable_binlog = true;

  /// Whether Compile() goes through the statement cache (parse each
  /// distinct statement shape once; bind literals per call). Off = parse
  /// every time. Either way the results are identical — the cache is
  /// wall-clock-only. It serves only the text this database compiles
  /// itself: a statement compiled elsewhere (the proxy's, or the master's
  /// for a slave) executes as it arrived.
  bool statement_cache = true;

  /// Whether committed write statements additionally capture row-based
  /// writesets into their binlog events (an INSERT's stored row). Off =
  /// statement-only events, the historical format. DDL and an INSERT with a
  /// NOW_MICROS() value are never covered regardless of this flag; they
  /// replicate as statement text (see db/writeset.h).
  bool row_based_repl = false;
};

/// A single-node relational database: catalog, SQL execution and a
/// statement-based binlog. Tables are append-only (INSERT is the one row
/// write). Every statement is its own transaction (auto-commit): a statement
/// that fails leaves no trace, and a committed write appends exactly one
/// binlog event.
///
/// Typical use:
///
///   Database database(options);
///   auto result = database.Execute("SELECT * FROM t WHERE id = 7");
class Database {
 public:
  explicit Database(DatabaseOptions options = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Compiles and executes one statement as its own transaction.
  Result<ExecResult> Execute(const std::string& sql);

  /// Compiles `sql` through this database's statement cache when it is
  /// enabled, else by ParseSql (see CompileSql). Callers that need the
  /// AST before executing (one set-up statement run on every replica, a
  /// resync re-shipping logged statements) compile once and hand the result
  /// to Execute.
  std::shared_ptr<const CompiledSql> Compile(const std::string& sql);

  /// Executes an already-compiled statement; a text that did not parse
  /// fails with its parse error. It may come from another replica's or the
  /// proxy's compile: tables and columns resolve against this database's
  /// catalog when it runs, and NOW_MICROS() evaluates here. A
  /// committed write logs the statement's text and hands `compiled` to the
  /// binlog's append listener.
  Result<ExecResult> Execute(const std::shared_ptr<const CompiledSql>& compiled);

  // --- Introspection -------------------------------------------------------
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  Binlog& binlog() { return binlog_; }
  const Binlog& binlog() const { return binlog_; }
  const DatabaseOptions& options() const { return options_; }
  StatementCache& statement_cache() { return statement_cache_; }
  const StatementCache& statement_cache() const { return statement_cache_; }

  /// Toggles the parse-once path at runtime (the on/off equivalence tests
  /// and benchmarks flip this). Disabling does not drop cached entries.
  void set_statement_cache_enabled(bool enabled) {
    options_.statement_cache = enabled;
  }
  bool statement_cache_enabled() const { return options_.statement_cache; }

  /// Toggles row-based writeset capture at runtime (the replication-mode
  /// ablation flips this on the master; slaves detect the mode per event).
  void set_row_based_repl_enabled(bool enabled) {
    options_.row_based_repl = enabled;
  }
  bool row_based_repl_enabled() const { return options_.row_based_repl; }

  /// Replaces the NOW_MICROS time source (options().now_micros).
  void SetTimeSource(std::function<int64_t()> now_micros) {
    options_.now_micros = std::move(now_micros);
  }

  /// Temporarily disables binlog appends (used by the direct pre-load and
  /// set-up statements, which every replica gets without replication).
  void set_binlog_suppressed(bool suppressed) {
    binlog_suppressed_ = suppressed;
  }
  bool binlog_suppressed() const { return binlog_suppressed_; }

  /// Turns binary logging on or off permanently (a promoted slave enables
  /// logging when it becomes the master).
  void set_binlog_enabled(bool enabled) { options_.enable_binlog = enabled; }

  /// True when every table's indexes are internally consistent (test hook).
  bool ValidateAllIndexes(std::string* error) const;

  /// Replaces every table with a copy of `source`'s (Table::Clone: the
  /// copy shares `source`'s immutable rows under their RowIds and owns its
  /// slots, RowId counter, schema, primary and secondary indexes). The
  /// binlog, options and statement cache are untouched: a remembered
  /// template resolves its names against whatever catalog it runs on.
  /// This is the one way a replica is copied:
  /// attaching a new slave and re-cloning failover survivors both use it.
  void CopyTablesFrom(const Database& source);

  /// Deep content equality of two databases (same tables, and per table the
  /// same schema, secondary-index set and row multiset) — the master/slave
  /// convergence check. Tables named in `ignore_tables` are excluded from
  /// the per-table comparison: statement-based replication re-evaluates
  /// NOW_MICROS() per replica, so tables like the heartbeat table (whose
  /// NOW_MICROS() column *intentionally* differs per replica) must be
  /// skipped.
  static bool ContentsEqual(const Database& a, const Database& b,
                            const std::vector<std::string>& ignore_tables = {});

 private:
  friend class Executor;

  /// The NOW_MICROS() clock: options().now_micros, or 0 when unset.
  int64_t NowMicros() const {
    return options_.now_micros ? options_.now_micros() : 0;
  }

  DatabaseOptions options_;
  Binlog binlog_;
  StatementCache statement_cache_;
  std::map<std::string, std::unique_ptr<Table>> tables_;  // keys lower-cased
  bool binlog_suppressed_ = false;
};

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_DATABASE_H_
