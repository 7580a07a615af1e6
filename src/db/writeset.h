#ifndef CLOUDDB_DB_WRITESET_H_
#define CLOUDDB_DB_WRITESET_H_

#include <string>
#include <vector>

#include "db/value.h"

namespace clouddb::db {

/// One physical row change captured on the master by row-based replication.
/// An insert carries the after image, a delete the before image, an update
/// both. Row images are full rows in schema column order — NULLs included —
/// so a slave can apply the delta without consulting the statement text.
struct RowOp {
  enum class Kind {
    kInsert,  // after  = the new row
    kDelete,  // before = the row as it existed
    kUpdate,  // before -> after, located by the before image
  };
  Kind kind = Kind::kInsert;
  std::string table;  // lower-cased catalog key
  Row before;
  Row after;
};

/// The row-based payload of one write statement, carried by its binlog
/// event (BinlogEvent::writeset).
///
/// `covered` is the coverage/fallback rule's verdict: DDL and any statement
/// whose expressions contain a function call are *not* covered — function
/// calls (NOW_MICROS in particular) must re-evaluate per replica under
/// statement-based semantics, and the heartbeat delay measurement depends on
/// exactly that. Uncovered statements ship with empty `ops`; slaves apply
/// them through the ordinary parse-and-execute path.
struct StatementWriteset {
  bool covered = false;
  std::vector<RowOp> ops;
};

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_WRITESET_H_
