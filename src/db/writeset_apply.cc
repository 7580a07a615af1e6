#include "db/writeset_apply.h"

#include <memory>

#include "common/status.h"
#include "common/str_util.h"
#include "db/database.h"
#include "db/table.h"
#include "db/value.h"
#include "db/writeset.h"

namespace clouddb::db {

Status ApplyStatementWriteset(Database* db, const StatementWriteset& ws) {
  if (ws.row == nullptr) {
    return Status::FailedPrecondition(
        "writeset not covered; apply the statement text instead");
  }
  Table* table = db->GetTable(ws.row->table);
  if (table == nullptr) {
    return Status::NotFound(
        StrFormat("no table named '%s'", ws.row->table.c_str()));
  }
  // The table shares the master's captured row instead of copying it.
  return table->Insert(std::shared_ptr<const Row>(ws.row, &ws.row->after))
      .status();
}

}  // namespace clouddb::db
