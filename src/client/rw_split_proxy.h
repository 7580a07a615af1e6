#ifndef CLOUDDB_CLIENT_RW_SPLIT_PROXY_H_
#define CLOUDDB_CLIENT_RW_SPLIT_PROXY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/connection_pool.h"
#include "db/statement_cache.h"
#include "metrics/metric_registry.h"
#include "repl/master_node.h"
#include "repl/slave_node.h"
#include "client/connection.h"
#include "common/time_types.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace clouddb::client {

/// How read statements are spread over slaves.
enum class BalancePolicy {
  /// Cycle through slaves in order (MySQL Connector/J's default; what the
  /// paper deploys).
  kRoundRobin,
  /// Send to the slave with the fewest outstanding requests.
  kLeastOutstanding,
  /// Send to the slave with the lowest EWMA response time — the paper's
  /// §IV-B.2 suggestion of "a smart load balancer which is able of balancing
  /// the operations based on estimated processing time".
  kLatencyWeighted,
  /// Freshness-SLA routing: filter slaves down to those whose *observed*
  /// replication staleness (from the staleness probe; see
  /// SetStalenessProbe) is within the read's bound, then round-robin among
  /// them. Reads with no eligible slave — every replica over bound,
  /// staleness unknown, or a bound of 0 — fall back to the master, which is
  /// fresh by definition.
  kFreshnessAware,
};

const char* BalancePolicyToString(BalancePolicy policy);

/// A read with no staleness bound: any replica may serve it.
inline constexpr SimDuration kNoStalenessBound = -1;

/// Per-read routing options carried by the freshness-SLA path.
struct ReadOptions {
  /// Maximum tolerated observed staleness for this read. Negative =
  /// unbounded; 0 = always the master (no replica is ever *exactly* fresh).
  SimDuration max_staleness = kNoStalenessBound;
};

struct ProxyOptions {
  BalancePolicy policy = BalancePolicy::kRoundRobin;
  ConnectionPoolOptions pool;
  /// The proxy compiles each statement once, where it enters the tier,
  /// through a proxy-local statement cache when this is on (parse once per
  /// shape) and by ParseSql, into the same form, when off. That compiled form
  /// classifies read vs write for Execute and is what the serving replica
  /// executes.
  bool route_cache = true;
};

/// The application-side statement router (the paper's MySQL Connector/J
/// replication proxy): "all write operations are sent to the master while
/// all read operations are distributed among slaves". One connection pool
/// per backend.
class ReadWriteSplitProxy {
 public:
  using Callback = Connection::Callback;

  ReadWriteSplitProxy(sim::Simulation* sim, net::Network* network,
                      net::NodeId client_node, repl::MasterNode* master,
                      std::vector<repl::SlaveNode*> slaves,
                      const ProxyOptions& options);

  /// Compiles `sql` (see ProxyOptions::route_cache) and routes it by the
  /// compiled statement: a SELECT goes to a slave per the balancing policy
  /// (the master serves reads only when there are no slaves); anything
  /// else, and a text that does not parse, goes to the master, which fails
  /// what does not parse.
  void Execute(const std::string& sql, SimDuration cpu_cost, Callback done);

  /// Freshness-SLA routing: like Execute, but a read carrying a
  /// non-negative `read_options.max_staleness` only goes to a slave whose
  /// observed staleness is within the bound (master fallback otherwise),
  /// and a bounded read that a slave fails with Unavailable mid-query
  /// (partition, crash) is transparently retried on the master. Writes
  /// ignore the bound.
  void Execute(const std::string& sql, SimDuration cpu_cost,
               const ReadOptions& read_options, Callback done);

  /// Wires the observed-staleness signal (ms, per slave index; negative =
  /// unknown) that kFreshnessAware and bounded reads consult. Typically
  /// control::FreshnessTracker::Probe(); the proxy cannot depend on the
  /// control layer, so the signal arrives as a callback.
  void SetStalenessProbe(std::function<double(int)> probe) {
    staleness_probe_ = std::move(probe);
  }

  /// Observed staleness of slave `i` in ms; negative when no probe is wired
  /// or the probe has no data yet.
  double SlaveStalenessMs(int slave_index) const {
    return staleness_probe_ ? staleness_probe_(slave_index) : -1.0;
  }

  /// Adds a freshly attached replica to the read rotation (the
  /// application-managed elasticity the paper motivates: the application
  /// reconfigures its own proxy when it scales the database tier).
  void AddSlave(repl::SlaveNode* slave);

  /// Repoints writes at a new master (after a failover promotion). A fresh
  /// connection pool is created; in-flight requests to the old master fail
  /// with Unavailable and are the application's to retry. A promotion adopts
  /// a slave's database on the same instance, so the slave on the new
  /// master's node leaves the read rotation.
  void ReplaceMaster(repl::MasterNode* master);

  /// Removes a replica from the read rotation without invalidating
  /// in-flight requests (the pool stays alive until the proxy is destroyed).
  /// Used when a slave is decommissioned.
  void DeactivateSlave(int slave_index);
  /// Puts a deactivated replica back into the rotation (elastic scale-out
  /// reviving a retired slave).
  void ReactivateSlave(int slave_index);
  bool IsSlaveActive(int slave_index) const {
    return active_[static_cast<size_t>(slave_index)];
  }

  int num_slaves() const { return static_cast<int>(slave_pools_.size()); }
  int64_t writes_routed() const { return writes_routed_; }
  int64_t reads_routed(int slave_index) const {
    return reads_routed_[static_cast<size_t>(slave_index)];
  }
  int64_t total_reads_routed() const;
  ConnectionPool& master_pool() { return *master_pool_; }
  ConnectionPool& slave_pool(int i) {
    return *slave_pools_[static_cast<size_t>(i)];
  }

  /// Routing cache stats (hits = statements compiled without a parse).
  const db::StatementCache& route_cache() const { return route_cache_; }

  /// Proxy metric registry: routing counters (bounded reads, master
  /// fallbacks, retries, SLA checks) plus per-backend outstanding/EWMA
  /// probes — the client-tier slice of the cluster-wide spine.
  metrics::MetricRegistry& metrics() { return metrics_; }
  const metrics::MetricRegistry& metrics() const { return metrics_; }

 private:
  int PickSlave(SimDuration max_staleness);
  /// Bookkeeping when a read on slave `slave_index` started at `started`
  /// completes: outstanding count and the EWMA response time.
  void FinishSlaveRead(int slave_index, SimTime started);
  bool WithinBound(int slave_index, SimDuration max_staleness) const;

  sim::Simulation* sim_;
  net::Network* network_;
  net::NodeId client_node_;
  ProxyOptions options_;
  db::StatementCache route_cache_;
  std::unique_ptr<ConnectionPool> master_pool_;
  /// Pools for replaced masters, kept alive for in-flight requests.
  std::vector<std::unique_ptr<ConnectionPool>> old_master_pools_;
  std::vector<std::unique_ptr<ConnectionPool>> slave_pools_;
  // Balancing state:
  size_t round_robin_next_ = 0;
  std::vector<bool> active_;
  std::vector<int64_t> outstanding_;
  std::vector<double> ewma_response_us_;
  std::vector<int64_t> reads_routed_;
  int64_t writes_routed_ = 0;
  std::function<double(int)> staleness_probe_;
  // Metrics (owned by metrics_; raw pointers stay valid for its lifetime).
  metrics::MetricRegistry metrics_;
  metrics::Counter* reads_total_ = nullptr;
  metrics::Counter* writes_total_ = nullptr;
  metrics::Counter* bounded_reads_ = nullptr;
  metrics::Counter* bounded_to_slave_ = nullptr;
  metrics::Counter* master_fallbacks_ = nullptr;
  metrics::Counter* read_retries_ = nullptr;
  metrics::Counter* sla_checked_ = nullptr;
  metrics::Counter* sla_violations_ = nullptr;
};

}  // namespace clouddb::client

#endif  // CLOUDDB_CLIENT_RW_SPLIT_PROXY_H_
