#ifndef CLOUDDB_DB_TRANSACTION_H_
#define CLOUDDB_DB_TRANSACTION_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "db/table.h"
#include "db/value.h"
#include "db/writeset.h"

namespace clouddb::db {

/// Table-level lock manager with a *no-wait* conflict policy: a conflicting
/// acquisition fails immediately with Aborted (the caller rolls back and may
/// retry). No-wait keeps the engine free of blocking inside the simulation's
/// single-threaded event loop while still exercising real conflict behaviour
/// between interleaved sessions. Locks are held until commit/rollback (2PL).
class LockManager {
 public:
  LockManager() = default;

  /// Shared lock; multiple readers coexist. Re-entrant per session. Upgrades
  /// are implicit: a session holding the write lock may also "read-lock".
  Status AcquireRead(int64_t session_id, const std::string& table);

  /// Exclusive lock. Fails with Aborted if any other session holds any lock
  /// on `table`. Upgrade from own read lock succeeds iff the session is the
  /// sole reader.
  Status AcquireWrite(int64_t session_id, const std::string& table);

  /// Drops every lock `session_id` holds.
  void ReleaseAll(int64_t session_id);

 private:
  struct TableLock {
    std::set<int64_t> readers;
    std::optional<int64_t> writer;
  };
  // Hashed, not ordered: the lock table is hit once per applied
  // statement and nothing iterates it in key order.
  std::unordered_map<std::string, TableLock> locks_;
};

/// One entry of a transaction's undo log; applied in reverse on rollback.
struct UndoRecord {
  enum class Kind {
    kInsert,  // row was inserted -> undo deletes it
    kDelete,  // row was deleted  -> undo restores old_row at row_id
    kUpdate,  // row was updated  -> undo restores old_row at row_id
  };
  Kind kind;
  std::string table;
  RowId row_id = 0;
  Row old_row;  // kDelete/kUpdate only
};

/// Per-connection execution context. Holds the in-flight transaction state:
/// whether an explicit BEGIN is open, the undo log, and the write-statement
/// text pending for the binlog at commit.
class Session {
 public:
  explicit Session(int64_t id) : id_(id) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  int64_t id() const { return id_; }
  bool in_explicit_transaction() const { return explicit_txn_; }

  // Internal state management (used by Database):
  void BeginExplicit() { explicit_txn_ = true; }
  void ClearTransactionState() {
    explicit_txn_ = false;
    undo_.clear();
    pending_binlog_.clear();
    pending_writesets_.clear();
  }

  std::vector<UndoRecord>& undo() { return undo_; }
  std::vector<std::string>& pending_binlog() { return pending_binlog_; }
  /// Row-based mode: one StatementWriteset per pending_binlog entry (the
  /// row images captured while the statement executed). Left empty when
  /// row-based capture is off.
  std::vector<StatementWriteset>& pending_writesets() {
    return pending_writesets_;
  }

 private:
  int64_t id_;
  bool explicit_txn_ = false;
  std::vector<UndoRecord> undo_;
  std::vector<std::string> pending_binlog_;
  std::vector<StatementWriteset> pending_writesets_;
};

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_TRANSACTION_H_
