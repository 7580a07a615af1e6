#include "repl/delay_monitor.h"

#include "common/result.h"
#include "common/stats.h"
#include "db/database.h"
#include "db/value.h"

namespace clouddb::repl {

std::map<int64_t, int64_t> ReadHeartbeats(db::Database& database,
                                          const std::string& table,
                                          int64_t after_id) {
  std::map<int64_t, int64_t> out;
  if (database.GetTable(table) == nullptr) return out;
  // The first poll parses the SELECT once (when the statement cache is on);
  // every later poll binds the same template again, a negative bound too
  // (a number's sign is part of its literal).
  const std::string sql = "SELECT hb_id, ts FROM " + table +
                          " WHERE hb_id > " + std::to_string(after_id);
  Result<db::ExecResult> rows = database.Execute(sql);
  if (!rows.ok()) return out;
  int id_col = -1;
  int ts_col = -1;
  for (size_t i = 0; i < rows->column_names.size(); ++i) {
    if (rows->column_names[i] == "hb_id") id_col = static_cast<int>(i);
    if (rows->column_names[i] == "ts") ts_col = static_cast<int>(i);
  }
  if (id_col < 0 || ts_col < 0) return out;
  for (const db::Row& row : rows->rows) {
    const db::Value& id = row[static_cast<size_t>(id_col)];
    const db::Value& ts = row[static_cast<size_t>(ts_col)];
    if (!id.is_null() && !ts.is_null()) {
      out[id.AsInt64()] = ts.AsInt64();
    }
  }
  return out;
}

std::vector<double> HeartbeatDelaysMs(db::Database& master,
                                      db::Database& slave, int64_t min_id,
                                      int64_t max_id,
                                      const std::string& table) {
  std::map<int64_t, int64_t> m = ReadHeartbeats(master, table, min_id - 1);
  std::map<int64_t, int64_t> s = ReadHeartbeats(slave, table, min_id - 1);
  std::vector<double> delays;
  for (const auto& [id, master_ts] : m) {
    if (id > max_id) break;
    auto it = s.find(id);
    if (it == s.end()) continue;  // not yet replicated
    delays.push_back(static_cast<double>(it->second - master_ts) / 1000.0);
  }
  return delays;
}

double AverageRelativeDelayMs(const std::vector<double>& loaded_delays_ms,
                              const std::vector<double>& idle_delays_ms,
                              double trim_fraction) {
  Sample loaded;
  loaded.AddAll(loaded_delays_ms);
  Sample idle;
  idle.AddAll(idle_delays_ms);
  return loaded.TrimmedMean(trim_fraction) - idle.TrimmedMean(trim_fraction);
}

}  // namespace clouddb::repl
