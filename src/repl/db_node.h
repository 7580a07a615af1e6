#ifndef CLOUDDB_REPL_DB_NODE_H_
#define CLOUDDB_REPL_DB_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cloud/instance.h"
#include "common/result.h"
#include "db/database.h"
#include "metrics/metric_registry.h"
#include "net/network.h"
#include "repl/cost_model.h"
#include "sim/simulation.h"
#include "common/time_types.h"
#include "db/statement_cache.h"

namespace clouddb::repl {

/// A database server process running on a cloud instance. Queries are
/// charged to the instance's CPU (FCFS) before executing against the embedded
/// `db::Database`; the database's NOW_MICROS() reads the instance's drifting
/// local clock, exactly like the paper's user-defined µs-resolution time
/// function (MySQL Bug #8523 workaround).
class DbNode {
 public:
  using QueryCallback = std::function<void(Result<db::ExecResult>)>;

  DbNode(sim::Simulation* sim, net::Network* network,
         cloud::Instance* instance, CostModel cost_model, bool enable_binlog);

  /// Adoption constructor: runs the node on `instance` over an *existing*
  /// database (used when promoting a slave: the new master adopts the
  /// promoted replica's data in place). Rebinds the database's NOW_MICROS
  /// to this node's instance clock.
  DbNode(sim::Simulation* sim, net::Network* network,
         cloud::Instance* instance, CostModel cost_model,
         std::unique_ptr<db::Database> adopted, bool enable_binlog);

  virtual ~DbNode() = default;

  DbNode(const DbNode&) = delete;
  DbNode& operator=(const DbNode&) = delete;

  /// Queues `compiled` on the node's CPU with nominal cost `cpu_cost`
  /// (< 0 = use the cost model's per-kind default) and executes it when the
  /// CPU reaches it. The compiled form is the one that executes: the node
  /// does not compile the text again. `done` fires on this node at
  /// completion; callers on other instances talk to the node through
  /// `client::Connection`, which adds the network hops.
  void Submit(std::shared_ptr<const db::CompiledSql> compiled,
              SimDuration cpu_cost, QueryCallback done);

  /// Text handed to the node directly (the heartbeat writer, tests): this
  /// node's database compiles it now, at submit time, and the compiled
  /// form queues as above.
  void Submit(const std::string& sql, SimDuration cpu_cost,
              QueryCallback done);

  /// Executes immediately, bypassing CPU accounting and the network —
  /// for test setup and bulk pre-loading ("both the master and slaves
  /// should start with a pre-loaded, fully-synchronized database").
  Result<db::ExecResult> ExecuteDirect(const std::string& sql);

  db::Database& database() { return *database_; }
  const db::Database& database() const { return *database_; }
  cloud::Instance& instance() { return *instance_; }
  const cloud::Instance& instance() const { return *instance_; }
  net::NodeId node_id() const { return instance_->node_id(); }
  const CostModel& cost_model() const { return cost_model_; }

  int64_t queries_completed() const { return queries_completed_; }
  int64_t queries_failed() const { return queries_failed_; }

  /// Per-node metric registry (scoped by the instance name). The base node
  /// registers pull-model probes over its existing counters — query totals,
  /// statement-cache hit rates, cumulative CPU busy time — so instrumenting
  /// costs nothing on the Execute hot path; subclasses add their own.
  metrics::MetricRegistry& metrics() { return metrics_; }
  const metrics::MetricRegistry& metrics() const { return metrics_; }

  /// Simulated process/instance failure. An offline node refuses queries
  /// (the caller gets Unavailable after the usual CPU-free turnaround) and
  /// does not answer health probes. Bringing a node back online does *not*
  /// resynchronize it — that is the failover manager's job (or, for slaves,
  /// SlaveNode's auto-resync).
  void set_online(bool online) { online_ = online; }
  bool online() const { return online_; }

  /// Detaches the node's database (promotion: the new master adopts it).
  /// The node goes offline; any further queries are refused.
  std::unique_ptr<db::Database> ReleaseDatabase();

 protected:
  sim::Simulation* sim() { return sim_; }
  net::Network* network() { return network_; }

  /// Executes `compiled` as its own transaction and counts the outcome.
  Result<db::ExecResult> ExecuteNow(
      const std::shared_ptr<const db::CompiledSql>& compiled);

  /// Runs once the CPU reaches the query: executes and delivers the result.
  /// MasterNode overrides this to defer the response in synchronous
  /// replication mode.
  virtual void ExecuteAndRespond(
      const std::shared_ptr<const db::CompiledSql>& compiled,
      QueryCallback done) {
    done(ExecuteNow(compiled));
  }

  /// Fires on every Crash()/Restart() of the hosting instance (registered
  /// as an instance power listener at construction). The base follows the
  /// instance's power state; SlaveNode extends it to drop volatile relay
  /// state on the way down and to reconnect on the way up.
  virtual void OnPowerEvent(bool up) { online_ = up; }

  sim::Simulation* sim_;
  net::Network* network_;
  cloud::Instance* instance_;
  CostModel cost_model_;
  std::unique_ptr<db::Database> database_;
  metrics::MetricRegistry metrics_;
  bool online_ = true;
  int64_t queries_completed_ = 0;
  int64_t queries_failed_ = 0;

 private:
  void RegisterBaseMetrics();
  /// Answers a query an offline node refuses: Unavailable, after the
  /// caller's network turnaround, with no CPU consumed here.
  void Refuse(QueryCallback done);
};

}  // namespace clouddb::repl

#endif  // CLOUDDB_REPL_DB_NODE_H_
