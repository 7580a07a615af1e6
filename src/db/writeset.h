#ifndef CLOUDDB_DB_WRITESET_H_
#define CLOUDDB_DB_WRITESET_H_

#include <memory>
#include <string>

#include "db/value.h"

namespace clouddb::db {

/// One row the master inserted, captured by row-based replication. Tables
/// are append-only, so a row op is always an insert and carries only its
/// after image: the full row as stored, in schema column order and NULLs
/// included, so a slave can insert it without consulting the statement text.
struct RowOp {
  std::string table;  // lower-cased catalog key
  Row after;
};

/// The row-based payload of one write statement, carried by its binlog
/// event (BinlogEvent::writeset).
///
/// `row` is set exactly when the coverage/fallback rule admits the
/// statement, and is then the one row its INSERT stored. DDL and an INSERT
/// with a NOW_MICROS() value are *not* covered — NOW_MICROS() must
/// re-evaluate per replica under statement-based semantics, and the
/// heartbeat delay measurement depends on exactly that. Uncovered
/// statements ship with a null row; slaves apply them through the ordinary
/// parse-and-execute path.
///
/// A captured row never changes, so the binlog's event, every shipped copy
/// of it, the master's table and each row-based slave's table share one
/// (the tables hold an aliasing pointer to `after`); a pointer also keeps
/// the slot small in the statement-based events that never fill it.
struct StatementWriteset {
  std::shared_ptr<const RowOp> row;
};

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_WRITESET_H_
