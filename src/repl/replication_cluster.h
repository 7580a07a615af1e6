#ifndef CLOUDDB_REPL_REPLICATION_CLUSTER_H_
#define CLOUDDB_REPL_REPLICATION_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_provider.h"
#include "common/result.h"
#include "common/status.h"
#include "repl/cost_model.h"
#include "repl/master_node.h"
#include "repl/slave_node.h"
#include "cloud/instance.h"
#include "cloud/placement.h"

namespace clouddb::repl {

/// Deployment description for a master/slave replication tier.
struct ClusterConfig {
  int num_slaves = 1;
  cloud::Placement master_placement = cloud::MasterPlacement();
  cloud::Placement slave_placement = cloud::SameZonePlacement();
  /// The paper runs master and slaves on small instances "so that saturation
  /// is expected to be observed early".
  cloud::InstanceType master_type = cloud::InstanceType::kSmall;
  cloud::InstanceType slave_type = cloud::InstanceType::kSmall;
  CostModel cost_model;
  bool synchronous_replication = false;
};

/// Launches instances on the given cloud and wires a master plus N slaves
/// into a replication tier (the paper's "second layer" / "third layer").
/// The cluster is the one owner of the topology: scale-out, scale-in and
/// failover promotion are its actuators, so master(), FullyReplicated(),
/// Converged() and AddSlave() hold across a promotion.
class ReplicationCluster {
 public:
  ReplicationCluster(cloud::CloudProvider* provider, const ClusterConfig& config);

  /// The current master: the original one, or the last promoted slave's.
  MasterNode* master() { return master_; }
  SlaveNode* slave(int i) { return slaves_[static_cast<size_t>(i)].get(); }
  /// Total slaves ever launched, retired ones included — indexes are stable
  /// (they align with the proxy's backend indexes).
  int num_slaves() const { return static_cast<int>(slaves_.size()); }
  int num_active_slaves() const;
  const ClusterConfig& config() const { return config_; }

  /// Elastic scale-out (the control loop's actuator): launches a fresh
  /// instance, copies the master onto it (CopyMasterOnto), attaches it and
  /// returns the new slave's index.
  Result<int> AddSlave();

  /// Elastic scale-in: detaches slave `i` from the master's stream and marks
  /// it retired. The node object stays alive (in-flight reads drain
  /// normally) but is excluded from FullyReplicated()/Converged() and no
  /// longer receives events. Idempotent per slave.
  Status RetireSlave(int i);

  /// Re-activates a previously retired slave: re-attaches it to the master
  /// and re-streams the binlog span it missed while detached
  /// (SlaveNode::RequestResync), resuming where its SQL thread stopped. Its
  /// data is not copied again. Scale-out prefers reviving a retired node
  /// over launching a new instance.
  Status ReviveSlave(int i);

  bool IsSlaveRetired(int i) const;

  /// Failover promotion (FailoverManager's actuator): a new MasterNode on
  /// slave `i`'s instance adopts its database, with binary logging on a
  /// fresh, empty timeline and the old master's replication mode (row-based
  /// capture, ship options, synchronous acks). An apply job the winner still
  /// has queued on its CPU is dropped unapplied. Slot `i` is retired; every
  /// other active slave that is online is re-cloned from the new master
  /// (asynchronous replication can leave it behind the winner) and attached
  /// to the new timeline, in index order; an active slave that is offline is
  /// retired. The old master stays alive for in-flight callbacks. Slots
  /// already retired stay retired on the old timeline: no caller combines
  /// failover with the elasticity controller. The promoted slot keeps no
  /// database, so the set-up calls below (LoadDirect,
  /// ExecuteEverywhereDirect, the statement-cache toggle) belong before
  /// any promotion.
  Status PromoteSlave(int i);

  /// The pre-load: runs `load` against the master's database only, with its
  /// binlog suppressed and no CPU charged — `load` gets an executor that
  /// runs one statement as ExecuteEverywhereDirect runs it on the master —
  /// then gives every slave one copy of the master's tables
  /// (CopyMasterOnto), as an operator seeds replicas from a snapshot. Each
  /// statement is evaluated once, on the master: a loader that calls
  /// NOW_MICROS() leaves the master's values on every slave (the Cloudstone
  /// loader writes only literals). Stops at the first failing
  /// statement, before any slave is copied.
  Status LoadDirect(
      const std::function<Status(
          const std::function<Status(const std::string&)>&)>& load);

  /// Runs `sql` directly on every replica (master and slaves), bypassing CPU
  /// and replication: set-up statements every copy needs without a binlog
  /// event (a test's or drill's DDL; perfbench's layered replay also issues
  /// its pre-load here, one call per statement).
  Status ExecuteEverywhereDirect(const std::string& sql);

  /// Toggles the statement cache on every replica's database (the fig2-style
  /// cache on/off ablation; results must be bit-identical either way).
  void SetStatementCacheEnabled(bool enabled);

  /// Has no effect. Kept only because perfbench's replay
  /// (perfbench/src/layered.cc) still calls it; ROADMAP item 1 deletes it
  /// together with ExperimentConfig::vectorized_exec.
  void SetVectorizedExecEnabled(bool /*enabled*/) {}

  /// Toggles row-based replication: the master captures row images next to
  /// each statement event, and slaves apply covered statements via the
  /// parser-free row-delta path. Same ablation contract: replica *state*
  /// must be bit-identical either way (DDL and function-bearing statements
  /// always fall back to statement apply).
  void SetRowBasedReplication(bool enabled);

  /// Sets the binlog group-shipping batch size on the master (<= 1 restores
  /// the legacy one-message-per-event push, byte-identical to the seed).
  void SetBinlogBatchSize(int batch_size);

  /// True when every slave has applied the whole master binlog.
  bool FullyReplicated() const;

  /// True when all replicas hold identical data and catalogs (deep content,
  /// schema and secondary-index equality) — the eventual-consistency
  /// convergence check.
  bool Converged() const;

 private:
  /// The one way a slave's data is copied: replaces its tables with the
  /// master's (db::Database::CopyTablesFrom, as an operator restores a
  /// backup onto a replica: the slave gets its own schemas, indexes and
  /// RowId counters, and shares the master's rows, which never change once
  /// stored) and seeds its binlog position at the copy point. A slave
  /// joining mid-run is then attached; the pre-load's slaves already are.
  void CopyMasterOnto(SlaveNode* slave);

  /// Runs `sql` on the master's database with its binlog suppressed and,
  /// with `on_slaves`, on every slave's: the master compiles it once
  /// (Database::Compile) and that one compiled statement executes on each
  /// copy.
  Status RunDirect(const std::string& sql, bool on_slaves);

  cloud::CloudProvider* provider_;
  ClusterConfig config_;
  /// Every master the tier has had, in promotion order; master_ is the last.
  std::vector<std::unique_ptr<MasterNode>> masters_;
  MasterNode* master_ = nullptr;
  std::vector<std::unique_ptr<SlaveNode>> slaves_;
  std::vector<bool> retired_;  // parallel to slaves_
};

}  // namespace clouddb::repl

#endif  // CLOUDDB_REPL_REPLICATION_CLUSTER_H_
