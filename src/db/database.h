#ifndef CLOUDDB_DB_DATABASE_H_
#define CLOUDDB_DB_DATABASE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/binlog.h"
#include "db/functions.h"
#include "db/sql_ast.h"
#include "db/statement_cache.h"
#include "db/table.h"
#include "db/transaction.h"
#include "db/value.h"
#include "db/vec_arena.h"
#include "db/vec_expr.h"

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
  /// wall-clock-only.
  bool statement_cache = true;

  /// Whether WHERE filtering and aggregation run batch-at-a-time over column
  /// chunks with compiled predicate bytecode. Off = row-at-a-time tree
  /// walking. Either way the results are byte-identical — predicates outside
  /// the compiler's coverage always fall back to the scalar path.
  bool vectorized_exec = true;

  /// Whether committed write statements additionally capture row-based
  /// writesets into their binlog events (row images for insert/delete/
  /// update). Off = statement-only events, the historical format. DDL and
  /// function-bearing statements are never covered regardless of this flag;
  /// they replicate as statement text (see db/writeset.h).
  bool row_based_repl = false;
};

/// Counters for the vectorized engine (benchmark and test introspection).
struct VecExecStats {
  int64_t chunks_filtered = 0;   // chunks run through VecFilterChunk
  int64_t rows_filtered = 0;     // rows those chunks contained
  int64_t fused_aggregates = 0;  // aggregate SELECTs via the vector kernels
  int64_t scalar_fallbacks = 0;  // eligible predicates that ran scalar
};

/// A single-node relational database: catalog, SQL execution, table-level
/// 2PL transactions with rollback, and a statement-based binlog.
///
/// Typical use:
///
///   Database database(options);
///   auto session = database.CreateSession();
///   auto result = database.Execute("SELECT * FROM t WHERE id = 7",
///                                  session.get());
///
/// `Execute(sql)` without a session runs the statement on an internal
/// autocommit session.
class Database {
 public:
  explicit Database(DatabaseOptions options = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates an independent session (connection context).
  std::unique_ptr<Session> CreateSession();

  /// Compiles and executes one statement on `session` (nullptr = the
  /// internal autocommit session). On statement failure inside an explicit
  /// transaction the whole transaction is rolled back (no savepoints).
  Result<ExecResult> Execute(const std::string& sql, Session* session = nullptr);

  /// Compiles `sql` through this database's statement cache when it is
  /// enabled, else by a plain parse (see CompileSql). Callers that need the
  /// AST before executing (cost estimation, one set-up statement run on
  /// every replica) compile once and hand the result to Execute.
  Result<CompiledSql> Compile(const std::string& sql);

  /// Executes an already-compiled statement. It may come from another
  /// replica's Compile: tables and columns resolve against this database's
  /// catalog when it runs. `sql_text` is the original statement text,
  /// recorded in the binlog if this is a write.
  Result<ExecResult> Execute(const CompiledSql& compiled,
                             const std::string& sql_text,
                             Session* session = nullptr);

  // --- Introspection -------------------------------------------------------
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  Binlog& binlog() { return binlog_; }
  const Binlog& binlog() const { return binlog_; }
  FunctionRegistry& functions() { return functions_; }
  LockManager& lock_manager() { return lock_manager_; }
  const DatabaseOptions& options() const { return options_; }
  StatementCache& statement_cache() { return statement_cache_; }
  const StatementCache& statement_cache() const { return statement_cache_; }

  /// Toggles the parse-once path at runtime (the on/off equivalence tests
  /// and benchmarks flip this). Disabling does not drop cached entries.
  void set_statement_cache_enabled(bool enabled) {
    options_.statement_cache = enabled;
  }
  bool statement_cache_enabled() const { return options_.statement_cache; }

  /// Toggles the vectorized execution engine at runtime (ablation studies
  /// and the on/off equivalence tests flip this; see
  /// DatabaseOptions::vectorized_exec).
  void set_vectorized_exec_enabled(bool enabled) {
    options_.vectorized_exec = enabled;
  }
  bool vectorized_exec_enabled() const { return options_.vectorized_exec; }

  /// Toggles row-based writeset capture at runtime (the replication-mode
  /// ablation flips this on the master; slaves detect the mode per event).
  void set_row_based_repl_enabled(bool enabled) {
    options_.row_based_repl = enabled;
  }
  bool row_based_repl_enabled() const { return options_.row_based_repl; }

  const VecExecStats& vec_stats() const { return vec_stats_; }
  void ResetVecStats() { vec_stats_ = VecExecStats{}; }

  /// Replaces the NOW_MICROS time source (also updates options()).
  void SetTimeSource(std::function<int64_t()> now_micros);

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

  /// Replaces every table with a copy of `source`'s (Table::Clone: rows
  /// under their RowIds, schemas, primary and secondary indexes) and
  /// invalidates the statement cache, as DDL does. The binlog, sessions and
  /// options are untouched. This is the one way a replica is copied:
  /// attaching a new slave and re-cloning failover survivors both use it.
  void CopyTablesFrom(const Database& source);

  /// Deep content equality of two databases (same tables, and per table the
  /// same schema, secondary-index set and row multiset) — the master/slave
  /// convergence check. Tables named in `ignore_tables` are excluded from
  /// the per-table comparison: statement-based replication re-evaluates
  /// non-deterministic functions per replica, so tables like the heartbeat
  /// table (whose NOW_MICROS() column *intentionally* differs per replica)
  /// must be skipped.
  static bool ContentsEqual(const Database& a, const Database& b,
                            const std::vector<std::string>& ignore_tables = {});

 private:
  friend class Executor;

  /// Commits `session`: appends pending write statements to the binlog as a
  /// single event, releases locks, clears transaction state.
  void CommitSession(Session* session);
  /// Rolls back `session`: applies the undo log in reverse, releases locks.
  void RollbackSession(Session* session);

  DatabaseOptions options_;
  FunctionRegistry functions_;
  Binlog binlog_;
  LockManager lock_manager_;
  StatementCache statement_cache_;
  std::map<std::string, std::unique_ptr<Table>> tables_;  // keys lower-cased
  bool binlog_suppressed_ = false;
  int64_t next_session_id_ = 1;
  std::unique_ptr<Session> autocommit_session_;
  // Vectorized-execution scratch state, reused across statements so steady
  // workloads allocate nothing per chunk. Single-threaded like the rest of
  // the engine (the simulation interleaves whole statements).
  VecArena vec_arena_;
  VecBinding vec_binding_;
  VecExecStats vec_stats_;
};

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_DATABASE_H_
