#include "db/binlog.h"

#include <memory>
#include <utility>

#include "db/statement_cache.h"
#include "db/value.h"
#include "db/writeset.h"

namespace clouddb::db {

namespace {

// Charge per value: a one-byte type tag, then 8 bytes for an integer or a
// 4-byte length plus the bytes for a string.
int64_t ValueWireSize(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt64:
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
  size += static_cast<int64_t>(event.statement.size());
  if (event.writeset.has_value()) {
    size += 5;  // covered flag + op count
    if (event.writeset->row != nullptr) {
      const RowOp& op = *event.writeset->row;
      // Kind, table name, and the count field of the empty before image.
      size += 9 + static_cast<int64_t>(op.table.size());
      size += RowWireSize(op.after);
    }
  }
  return size;
}

ShippedEvent::ShippedEvent(const BinlogEvent& event,
                           std::shared_ptr<const CompiledSql> compiled)
    : index(event.index),
      writeset(event.writeset),
      commit_micros(event.commit_micros),
      wire_bytes(EventWireSize(event)),
      compiled(std::move(compiled)) {}

int64_t Binlog::Append(const std::shared_ptr<const CompiledSql>& compiled,
                       std::optional<StatementWriteset> writeset,
                       int64_t commit_micros) {
  BinlogEvent ev;
  ev.index = static_cast<int64_t>(events_.size());
  ev.statement = compiled->text();
  ev.writeset = std::move(writeset);
  ev.commit_micros = commit_micros;
  events_.push_back(std::move(ev));
  if (listener_) listener_(events_.back(), compiled);
  return events_.back().index;
}

}  // namespace clouddb::db
