#include "db/transaction.h"

#include "common/str_util.h"
#include "common/status.h"

namespace clouddb::db {

Status LockManager::AcquireRead(int64_t session_id, const std::string& table) {
  TableLock& lock = locks_[table];
  if (lock.writer.has_value() && *lock.writer != session_id) {
    return Status::Aborted(
        StrFormat("table '%s' is write-locked by another session",
                  table.c_str()));
  }
  lock.readers.insert(session_id);
  return Status::Ok();
}

Status LockManager::AcquireWrite(int64_t session_id,
                                 const std::string& table) {
  TableLock& lock = locks_[table];
  if (lock.writer.has_value()) {
    if (*lock.writer == session_id) return Status::Ok();  // re-entrant
    return Status::Aborted(
        StrFormat("table '%s' is write-locked by another session",
                  table.c_str()));
  }
  for (int64_t reader : lock.readers) {
    if (reader != session_id) {
      return Status::Aborted(
          StrFormat("table '%s' is read-locked by another session",
                    table.c_str()));
    }
  }
  lock.writer = session_id;
  return Status::Ok();
}

void LockManager::ReleaseAll(int64_t session_id) {
  for (auto it = locks_.begin(); it != locks_.end();) {
    TableLock& lock = it->second;
    lock.readers.erase(session_id);
    if (lock.writer == session_id) lock.writer.reset();
    if (lock.readers.empty() && !lock.writer.has_value()) {
      it = locks_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace clouddb::db
