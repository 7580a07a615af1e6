#include "db/binlog.h"

#include <utility>

#include "db/value.h"
#include "db/writeset.h"

namespace clouddb::db {

namespace {

// Charge per value: a one-byte type tag, then 8 bytes for a number or a
// 4-byte length plus the bytes for a string.
int64_t ValueWireSize(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 9;
    case ValueType::kString:
      return 5 + static_cast<int64_t>(v.AsString().size());
  }
  return 1;
}

// Charge per row image: a 4-byte value count plus each value.
int64_t RowWireSize(const Row& row) {
  int64_t size = 4;
  for (const Value& v : row) size += ValueWireSize(v);
  return size;
}

}  // namespace

int64_t EventWireSize(const BinlogEvent& event) {
  int64_t size = 32;  // header
  for (const auto& s : event.statements) {
    size += static_cast<int64_t>(s.size());
  }
  for (const StatementWriteset& ws : event.writesets) {
    size += 5;  // covered flag + op count
    for (const RowOp& op : ws.ops) {
      size += 5 + static_cast<int64_t>(op.table.size());  // kind + table
      size += RowWireSize(op.before) + RowWireSize(op.after);
    }
  }
  return size;
}

int64_t Binlog::Append(std::vector<std::string> statements,
                       int64_t commit_micros) {
  return Append(std::move(statements), {}, commit_micros);
}

int64_t Binlog::Append(std::vector<std::string> statements,
                       std::vector<StatementWriteset> writesets,
                       int64_t commit_micros) {
  BinlogEvent ev;
  ev.index = static_cast<int64_t>(events_.size());
  ev.statements = std::move(statements);
  ev.writesets = std::move(writesets);
  ev.commit_micros = commit_micros;
  events_.push_back(std::move(ev));
  if (listener_) listener_(events_.back());
  return events_.back().index;
}

}  // namespace clouddb::db
