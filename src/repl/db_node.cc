#include "repl/db_node.h"

#include "cloud/instance.h"
#include "common/result.h"
#include "common/status.h"
#include "common/time_types.h"
#include "db/database.h"
#include "db/statement_cache.h"
#include "net/network.h"
#include "repl/cost_model.h"
#include "sim/simulation.h"

namespace clouddb::repl {

DbNode::DbNode(sim::Simulation* sim, net::Network* network,
               cloud::Instance* instance, CostModel cost_model,
               bool enable_binlog)
    : sim_(sim),
      network_(network),
      instance_(instance),
      cost_model_(std::move(cost_model)),
      metrics_(instance->name()) {
  db::DatabaseOptions options;
  options.enable_binlog = enable_binlog;
  options.now_micros = [this] { return instance_->LocalNowMicros(); };
  database_ = std::make_unique<db::Database>(std::move(options));
  instance_->AddPowerListener([this](bool up) { OnPowerEvent(up); });
  RegisterBaseMetrics();
}

DbNode::DbNode(sim::Simulation* sim, net::Network* network,
               cloud::Instance* instance, CostModel cost_model,
               std::unique_ptr<db::Database> adopted, bool enable_binlog)
    : sim_(sim),
      network_(network),
      instance_(instance),
      cost_model_(std::move(cost_model)),
      database_(std::move(adopted)),
      metrics_(instance->name()) {
  database_->set_binlog_enabled(enable_binlog);
  // The adopted database's clock must follow *this* node's instance (the
  // previous owner's lambda would dangle).
  database_->SetTimeSource([this] { return instance_->LocalNowMicros(); });
  instance_->AddPowerListener([this](bool up) { OnPowerEvent(up); });
  RegisterBaseMetrics();
}

void DbNode::RegisterBaseMetrics() {
  // Pull-model probes over counters the node maintains anyway: the hot path
  // pays nothing, readers compute the value on demand.
  metrics_.AddProbe("db.queries.completed", [this] {
    return static_cast<double>(queries_completed_);
  });
  metrics_.AddProbe("db.queries.failed", [this] {
    return static_cast<double>(queries_failed_);
  });
  metrics_.AddProbe("db.statement_cache.hits", [this] {
    return database_ == nullptr
               ? 0.0
               : static_cast<double>(database_->statement_cache().stats().hits);
  });
  metrics_.AddProbe("db.statement_cache.misses", [this] {
    return database_ == nullptr
               ? 0.0
               : static_cast<double>(
                     database_->statement_cache().stats().misses);
  });
  metrics_.AddProbe("db.cpu.busy_micros", [this] {
    return static_cast<double>(instance_->cpu().CumulativeBusyMicros());
  });
}

std::unique_ptr<db::Database> DbNode::ReleaseDatabase() {
  online_ = false;
  return std::move(database_);
}

void DbNode::Refuse(QueryCallback done) {
  sim_->ScheduleAfter(0, [done = std::move(done)] {
    done(Status::Unavailable("database node is offline"));
  });
}

void DbNode::Submit(std::shared_ptr<const db::CompiledSql> compiled,
                    SimDuration cpu_cost, QueryCallback done) {
  if (!online_ || database_ == nullptr) {
    Refuse(std::move(done));
    return;
  }
  if (cpu_cost < 0) {
    // Parsing for cost estimation is not charged: real servers spend a
    // negligible fraction of statement time in the parser. A text that
    // does not parse costs nothing and fails when it executes.
    cpu_cost = compiled->ok()
                   ? cost_model_.EstimateStatement(compiled->statement())
                   : SimDuration{0};
  }
  instance_->cpu().Submit(
      cpu_cost,
      [this, compiled = std::move(compiled), done = std::move(done)]() mutable {
        ExecuteAndRespond(compiled, std::move(done));
      });
}

void DbNode::Submit(const std::string& sql, SimDuration cpu_cost,
                    QueryCallback done) {
  if (!online_ || database_ == nullptr) {
    Refuse(std::move(done));
    return;
  }
  Submit(database_->Compile(sql), cpu_cost, std::move(done));
}

Result<db::ExecResult> DbNode::ExecuteDirect(const std::string& sql) {
  if (!online_ || database_ == nullptr) {
    ++queries_failed_;
    return Status::Unavailable("database node is offline");
  }
  return ExecuteNow(database_->Compile(sql));
}

Result<db::ExecResult> DbNode::ExecuteNow(
    const std::shared_ptr<const db::CompiledSql>& compiled) {
  if (!online_ || database_ == nullptr) {
    ++queries_failed_;
    return Status::Unavailable("database node is offline");
  }
  Result<db::ExecResult> result = database_->Execute(compiled);
  if (result.ok()) {
    ++queries_completed_;
  } else {
    ++queries_failed_;
  }
  return result;
}

}  // namespace clouddb::repl
