#include "client/rw_split_proxy.h"

#include <cassert>
#include <memory>
#include <utility>

#include "client/connection_pool.h"
#include "common/result.h"
#include "common/str_util.h"
#include "common/time_types.h"
#include "db/database.h"
#include "db/sql_ast.h"
#include "db/statement_cache.h"
#include "net/network.h"
#include "repl/master_node.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"

namespace clouddb::client {

const char* BalancePolicyToString(BalancePolicy policy) {
  switch (policy) {
    case BalancePolicy::kRoundRobin:
      return "round_robin";
    case BalancePolicy::kLeastOutstanding:
      return "least_outstanding";
    case BalancePolicy::kLatencyWeighted:
      return "latency_weighted";
    case BalancePolicy::kFreshnessAware:
      return "freshness_aware";
  }
  return "?";
}

ReadWriteSplitProxy::ReadWriteSplitProxy(sim::Simulation* sim,
                                         net::Network* network,
                                         net::NodeId client_node,
                                         repl::MasterNode* master,
                                         std::vector<repl::SlaveNode*> slaves,
                                         const ProxyOptions& options)
    : sim_(sim), network_(network), client_node_(client_node),
      options_(options), metrics_("proxy") {
  reads_total_ = metrics_.AddCounter("proxy.reads.total");
  writes_total_ = metrics_.AddCounter("proxy.writes.total");
  bounded_reads_ = metrics_.AddCounter("proxy.reads.bounded");
  bounded_to_slave_ = metrics_.AddCounter("proxy.reads.bounded_to_slave");
  master_fallbacks_ = metrics_.AddCounter("proxy.reads.master_fallback");
  read_retries_ = metrics_.AddCounter("proxy.reads.retries");
  sla_checked_ = metrics_.AddCounter("proxy.sla.checked");
  sla_violations_ = metrics_.AddCounter("proxy.sla.violations");
  master_pool_ = std::make_unique<ConnectionPool>(network, client_node, master,
                                                  options.pool);
  for (repl::SlaveNode* slave : slaves) {
    AddSlave(slave);
  }
}

void ReadWriteSplitProxy::AddSlave(repl::SlaveNode* slave) {
  int index = static_cast<int>(slave_pools_.size());
  slave_pools_.push_back(std::make_unique<ConnectionPool>(
      network_, client_node_, slave, options_.pool));
  active_.push_back(true);
  outstanding_.push_back(0);
  ewma_response_us_.push_back(0.0);
  reads_routed_.push_back(0);
  // Per-backend pull probes over the balancing state the proxy keeps anyway.
  metrics_.AddProbe(StrFormat("proxy.backend.%d.outstanding", index),
                    [this, index] {
                      return static_cast<double>(
                          outstanding_[static_cast<size_t>(index)]);
                    });
  metrics_.AddProbe(StrFormat("proxy.backend.%d.ewma_response_us", index),
                    [this, index] {
                      return ewma_response_us_[static_cast<size_t>(index)];
                    });
  metrics_.AddProbe(StrFormat("proxy.backend.%d.reads_routed", index),
                    [this, index] {
                      return static_cast<double>(
                          reads_routed_[static_cast<size_t>(index)]);
                    });
}

void ReadWriteSplitProxy::ReplaceMaster(repl::MasterNode* master) {
  old_master_pools_.push_back(std::move(master_pool_));
  master_pool_ = std::make_unique<ConnectionPool>(network_, client_node_,
                                                  master, options_.pool);
  for (size_t i = 0; i < slave_pools_.size(); ++i) {
    if (slave_pools_[i]->target()->node_id() == master->node_id()) {
      active_[i] = false;
    }
  }
}

void ReadWriteSplitProxy::DeactivateSlave(int slave_index) {
  active_[static_cast<size_t>(slave_index)] = false;
}

void ReadWriteSplitProxy::ReactivateSlave(int slave_index) {
  active_[static_cast<size_t>(slave_index)] = true;
}

void ReadWriteSplitProxy::Execute(const std::string& sql,
                                  SimDuration cpu_cost, Callback done) {
  Execute(sql, cpu_cost, ReadOptions{}, std::move(done));
}

void ReadWriteSplitProxy::Execute(const std::string& sql,
                                  SimDuration cpu_cost,
                                  const ReadOptions& read_options,
                                  Callback done) {
  // The proxy's one compile step, through the route cache when it is on:
  // after the first sighting of a statement shape, classification costs a
  // fingerprint, not a parse. The same compiled form then runs on the
  // backend.
  std::shared_ptr<const db::CompiledSql> compiled =
      db::CompileSql(options_.route_cache ? &route_cache_ : nullptr, sql);
  bool is_read = compiled->ok() && !db::IsWriteStatement(compiled->statement());
  if (is_read) {
    reads_total_->Increment();
  } else {
    writes_total_->Increment();
  }
  bool bounded = is_read && read_options.max_staleness >= 0;
  int slave = is_read ? PickSlave(read_options.max_staleness) : -1;
  if (bounded) {
    bounded_reads_->Increment();
    if (slave < 0) {
      master_fallbacks_->Increment();
    } else {
      bounded_to_slave_->Increment();
    }
  }
  if (slave < 0) {  // write, or no (eligible) slave to read from
    ++writes_routed_;
    master_pool_->Execute(std::move(compiled), cpu_cost, std::move(done));
    return;
  }
  ++reads_routed_[static_cast<size_t>(slave)];
  ++outstanding_[static_cast<size_t>(slave)];
  SimTime started = sim_->Now();
  if (!bounded) {
    slave_pools_[static_cast<size_t>(slave)]->Execute(
        std::move(compiled), cpu_cost,
        [this, slave, started,
         done = std::move(done)](Result<db::ExecResult> result) mutable {
          FinishSlaveRead(slave, started);
          done(std::move(result));
        });
    return;
  }
  SimDuration bound = read_options.max_staleness;
  // The retry on the master below re-sends the same compiled statement.
  slave_pools_[static_cast<size_t>(slave)]->Execute(
      compiled, cpu_cost,
      [this, slave, started, bound, compiled, cpu_cost,
       done = std::move(done)](Result<db::ExecResult> result) mutable {
        FinishSlaveRead(slave, started);
        if (!result.ok() && result.status().IsUnavailable()) {
          // The slave went away mid-query (partition, crash, retirement
          // race). A bounded read must still complete within its SLA, and
          // the master is fresh by definition — reroute there.
          read_retries_->Increment();
          ++writes_routed_;
          master_pool_->Execute(std::move(compiled), cpu_cost,
                                std::move(done));
          return;
        }
        // Achieved-freshness accounting: the routing decision used the
        // probe as of admission; by completion the slave may have fallen
        // behind. Re-consult the probe so violations are *measured*, not
        // assumed away.
        sla_checked_->Increment();
        double staleness_ms = SlaveStalenessMs(slave);
        if (staleness_ms >= 0.0 && MillisF(staleness_ms) > bound) {
          sla_violations_->Increment();
        }
        done(std::move(result));
      });
}

void ReadWriteSplitProxy::FinishSlaveRead(int slave_index, SimTime started) {
  // Smoothing of the kLatencyWeighted response-time estimate.
  constexpr double kEwmaAlpha = 0.2;
  --outstanding_[static_cast<size_t>(slave_index)];
  double response = static_cast<double>(sim_->Now() - started);
  double& ewma = ewma_response_us_[static_cast<size_t>(slave_index)];
  ewma = ewma == 0.0 ? response
                     : (1.0 - kEwmaAlpha) * ewma + kEwmaAlpha * response;
}

int64_t ReadWriteSplitProxy::total_reads_routed() const {
  int64_t total = 0;
  for (int64_t r : reads_routed_) total += r;
  return total;
}

bool ReadWriteSplitProxy::WithinBound(int slave_index,
                                      SimDuration max_staleness) const {
  if (max_staleness < 0) return true;  // unbounded read
  double staleness_ms = SlaveStalenessMs(slave_index);
  // Unknown staleness (no probe wired, or no heartbeat data yet) is treated
  // as over-bound: a bounded read never gambles on an unmeasured replica.
  if (staleness_ms < 0.0) return false;
  return MillisF(staleness_ms) <= max_staleness;
}

int ReadWriteSplitProxy::PickSlave(SimDuration max_staleness) {
  // A bound of 0 always reads the master: replication is asynchronous, so
  // no replica is ever exactly fresh.
  if (max_staleness == 0) return -1;
  size_t n = slave_pools_.size();
  std::vector<bool> eligible(n);
  size_t eligible_count = 0;
  for (size_t i = 0; i < n; ++i) {
    eligible[i] =
        active_[i] && WithinBound(static_cast<int>(i), max_staleness);
    if (eligible[i]) ++eligible_count;
  }
  if (eligible_count == 0) return -1;
  switch (options_.policy) {
    case BalancePolicy::kRoundRobin:
    case BalancePolicy::kFreshnessAware: {  // the filter above, then rotate
      // Advance past deactivated / over-bound replicas.
      for (size_t attempts = 0; attempts < n; ++attempts) {
        size_t pick = round_robin_next_ % n;
        ++round_robin_next_;
        if (eligible[pick]) return static_cast<int>(pick);
      }
      return -1;
    }
    case BalancePolicy::kLeastOutstanding: {
      int best = -1;
      for (size_t i = 0; i < n; ++i) {
        if (!eligible[i]) continue;
        if (best < 0 || outstanding_[i] < outstanding_[static_cast<size_t>(best)]) {
          best = static_cast<int>(i);
        }
      }
      return best;
    }
    case BalancePolicy::kLatencyWeighted: {
      // Prefer unmeasured slaves, then the lowest expected completion time
      // (EWMA response scaled by queue depth).
      int best = -1;
      double best_score = -1.0;
      for (size_t i = 0; i < n; ++i) {
        if (!eligible[i]) continue;
        if (ewma_response_us_[i] == 0.0) return static_cast<int>(i);
        double score = ewma_response_us_[i] *
                       static_cast<double>(outstanding_[i] + 1);
        if (best_score < 0.0 || score < best_score) {
          best_score = score;
          best = static_cast<int>(i);
        }
      }
      return best;
    }
  }
  return -1;
}

}  // namespace clouddb::client
