#ifndef CLOUDDB_REPL_DELAY_MONITOR_H_
#define CLOUDDB_REPL_DELAY_MONITOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "db/database.h"

namespace clouddb::repl {

/// Reads the heartbeat rows of `database` with hb_id > `after_id`: id ->
/// committed local timestamp (µs on that replica's clock). Heartbeat ids are
/// positive (HeartbeatPlugin numbers them 1, 2, ...), so the default reads
/// the whole table, and a poller that passes the newest id it holds reads
/// only the rows committed since. Every call binds the one template
/// `SELECT hb_id, ts FROM <table> WHERE hb_id > ?`, served as a primary-key
/// index range, through Database::Execute and so the statement cache when
/// it is enabled (non-const: the first call warms the template, later calls
/// hit it).
std::map<int64_t, int64_t> ReadHeartbeats(db::Database& database,
                                          const std::string& table,
                                          int64_t after_id = 0);

/// Per-heartbeat replication delay in milliseconds for ids in
/// [min_id, max_id] that are committed on both replicas:
/// slave local apply time minus master local commit time. Includes the
/// inter-instance clock offset — exactly what the raw measurement in the
/// paper includes.
std::vector<double> HeartbeatDelaysMs(db::Database& master,
                                      db::Database& slave, int64_t min_id,
                                      int64_t max_id,
                                      const std::string& table = "heartbeat");

/// The paper's *average relative replication delay* (§IV-B.1): the
/// difference between the average loaded delay and the average idle delay on
/// the same slave, each a two-sided trimmed mean ("sampled with the top 5%
/// and the bottom 5% data cut out as outliers"). Subtracting the idle
/// baseline cancels the (NTP-stabilized) clock offset between the instances.
double AverageRelativeDelayMs(const std::vector<double>& loaded_delays_ms,
                              const std::vector<double>& idle_delays_ms,
                              double trim_fraction = 0.05);

}  // namespace clouddb::repl

#endif  // CLOUDDB_REPL_DELAY_MONITOR_H_
