#include "db/writeset_apply.h"

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "common/str_util.h"
#include "db/database.h"
#include "db/table.h"
#include "common/result.h"
#include "db/writeset.h"

namespace clouddb::db {

namespace {

/// The op that undoes `op`: insert <-> delete, update swaps its images.
/// Inverses are themselves RowOps, so the unwind reuses ApplyRowDelta.
RowOp InverseOf(const RowOp& op) {
  RowOp inv;
  inv.table = op.table;
  switch (op.kind) {
    case RowOp::Kind::kInsert:
      inv.kind = RowOp::Kind::kDelete;
      inv.before = op.after;
      break;
    case RowOp::Kind::kDelete:
      inv.kind = RowOp::Kind::kInsert;
      inv.after = op.before;
      break;
    case RowOp::Kind::kUpdate:
      inv.kind = RowOp::Kind::kUpdate;
      inv.before = op.after;
      inv.after = op.before;
      break;
  }
  return inv;
}

}  // namespace

Result<int64_t> ApplyStatementWriteset(Database* db,
                                       const StatementWriteset& ws) {
  if (!ws.covered) {
    return Status::FailedPrecondition(
        "writeset not covered; apply the statement text instead");
  }
  // Almost every statement touches one table, so memoize the last
  // name -> Table* resolution instead of paying a catalog map lookup per
  // row op. A short equal-string compare is far cheaper, and this path runs
  // once per replicated row.
  const std::string* cached_name = nullptr;
  Table* cached_table = nullptr;
  auto resolve = [&](const std::string& name) -> Table* {
    if (cached_name == nullptr || *cached_name != name) {
      cached_name = &name;
      cached_table = db->GetTable(name);
    }
    return cached_table;
  };
  // Ops apply in order, so a plain count of successes is enough to drive the
  // unwind below — no per-statement bookkeeping allocation.
  size_t applied = 0;
  Status st = Status::Ok();
  for (const RowOp& op : ws.ops) {
    Table* table = resolve(op.table);
    if (table == nullptr) {
      st = Status::NotFound(
          StrFormat("no table named '%s'", op.table.c_str()));
      break;
    }
    st = table->ApplyRowDelta(op);
    if (!st.ok()) break;
    ++applied;
  }
  if (!st.ok()) {
    // Unwind the partially applied statement so it stays atomic, as the
    // executor's undo log makes statement apply.
    for (size_t i = applied; i-- > 0;) {
      Table* table = resolve(ws.ops[i].table);
      if (table != nullptr) {
        Status undone = table->ApplyRowDelta(InverseOf(ws.ops[i]));
        (void)undone;  // a failing inverse means the replica already diverged
      }
    }
    return st;
  }
  return static_cast<int64_t>(ws.ops.size());
}

}  // namespace clouddb::db
