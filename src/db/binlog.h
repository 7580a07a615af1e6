#ifndef CLOUDDB_DB_BINLOG_H_
#define CLOUDDB_DB_BINLOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "db/writeset.h"

namespace clouddb::db {

class CompiledSql;

/// One committed statement in the binary log. Every statement is its own
/// transaction, so an event carries exactly one write statement's SQL
/// *text*: what the network charges for shipping it. Slaves re-execute the
/// statement (the master's compiled form of this text is what ships, see
/// ShippedEvent), and a NOW_MICROS() in it evaluates at execution, so it
/// reads each replica's own clock.
///
/// In row-based mode the event also carries the statement's writeset: the
/// row the master's INSERT stored. Slaves insert a covered writeset's row
/// directly through Table::Insert and fall back to the text for an uncovered
/// one (DDL, an INSERT with a NOW_MICROS() value).
struct BinlogEvent {
  int64_t index = 0;  // position in the log, 0-based and dense
  std::string statement;
  /// Empty in statement-based mode.
  std::optional<StatementWriteset> writeset;
  int64_t commit_micros = 0;  // committing server's local clock at commit
};

/// An appended event as replication ships it: the logged event's index,
/// writeset and commit stamp, its wire charge, and the master's compiled
/// form of its statement, which a slave executes instead of compiling the
/// text again. The compiled form keeps the text and the writeset shares the
/// logged event's row, so the wrapper copies neither. One immutable object
/// per event, shared by every slave's message and relay log; the binlog
/// itself keeps only the BinlogEvent.
struct ShippedEvent {
  ShippedEvent(const BinlogEvent& event,
               std::shared_ptr<const CompiledSql> compiled);

  int64_t index;
  std::optional<StatementWriteset> writeset;
  int64_t commit_micros;
  int64_t wire_bytes;  // EventWireSize(event)
  std::shared_ptr<const CompiledSql> compiled;
};

/// Bytes the simulated network charges for shipping an event to a slave.
/// Events travel in memory and are never encoded; this is the one cost
/// model. A statement-only event costs a 32-byte header plus the statement
/// text — the size the network has always charged — so disabling row-based
/// mode reproduces historical traffic byte for byte. A writeset adds 5
/// bytes, and a covered one's row op 9 plus its table name (a kind byte, the
/// name's length, and an empty before image's 4-byte count, kept so recorded
/// byte totals stay as they are) plus its row image: 4 plus, per value, 1
/// (NULL), 9 (integer) or 5 plus the length (string).
int64_t EventWireSize(const BinlogEvent& event);

/// Append-only, in-memory binary log.
class Binlog {
 public:
  Binlog() = default;
  Binlog(const Binlog&) = delete;
  Binlog& operator=(const Binlog&) = delete;

  /// Appends the event of one committed statement, logging its text
  /// (`writeset` set in row-based mode), and hands `compiled` on to the
  /// append listener; returns the event's index.
  int64_t Append(const std::shared_ptr<const CompiledSql>& compiled,
                 std::optional<StatementWriteset> writeset,
                 int64_t commit_micros);

  int64_t size() const { return static_cast<int64_t>(events_.size()); }
  /// Event at `index` in [0, size()).
  const BinlogEvent& At(int64_t index) const {
    return events_[static_cast<size_t>(index)];
  }

  /// Called after every append with the event and the compiled statement
  /// it logs — replication masters use this to push new events to
  /// connected dump threads.
  using AppendListener = std::function<void(
      const BinlogEvent&, const std::shared_ptr<const CompiledSql>&)>;
  void SetAppendListener(AppendListener listener) {
    listener_ = std::move(listener);
  }

 private:
  std::vector<BinlogEvent> events_;
  AppendListener listener_;
};

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_BINLOG_H_
