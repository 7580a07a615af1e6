#include "repl/replication_cluster.h"

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/str_util.h"
#include "cloud/cloud_provider.h"
#include "cloud/instance.h"
#include "common/result.h"
#include "common/status.h"
#include "db/database.h"
#include "db/statement_cache.h"
#include "net/network.h"
#include "repl/master_node.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"

namespace clouddb::repl {

ReplicationCluster::ReplicationCluster(cloud::CloudProvider* provider,
                                       const ClusterConfig& config)
    : provider_(provider), config_(config) {
  sim::Simulation* sim = &provider->simulation();
  net::Network* network = &provider->network();

  cloud::Instance* master_instance = provider->Launch(
      "master", config.master_type, config.master_placement);
  masters_.push_back(std::make_unique<MasterNode>(
      sim, network, master_instance, config.cost_model));
  master_ = masters_.back().get();
  master_->SetSynchronousReplication(config.synchronous_replication);

  for (int i = 0; i < config.num_slaves; ++i) {
    cloud::Instance* slave_instance =
        provider->Launch(StrFormat("slave-%d", i + 1), config.slave_type,
                         config.slave_placement);
    auto slave = std::make_unique<SlaveNode>(sim, network, slave_instance,
                                             config.cost_model);
    master_->AttachSlave(slave.get());
    slaves_.push_back(std::move(slave));
    retired_.push_back(false);
  }
}

int ReplicationCluster::num_active_slaves() const {
  int active = 0;
  for (bool retired : retired_) {
    if (!retired) ++active;
  }
  return active;
}

Result<int> ReplicationCluster::AddSlave() {
  sim::Simulation* sim = &provider_->simulation();
  net::Network* network = &provider_->network();
  cloud::Instance* instance = provider_->Launch(
      StrFormat("slave-%d", num_slaves() + 1), config_.slave_type,
      config_.slave_placement);
  auto slave = std::make_unique<SlaveNode>(sim, network, instance,
                                           config_.cost_model);
  slave->database().set_statement_cache_enabled(
      master_->database().statement_cache_enabled());
  CopyMasterOnto(slave.get());
  master_->AttachSlave(slave.get());
  slaves_.push_back(std::move(slave));
  retired_.push_back(false);
  return num_slaves() - 1;
}

void ReplicationCluster::CopyMasterOnto(SlaveNode* slave) {
  slave->database().CopyTablesFrom(master_->database());
  // The copy covers every event already in the binlog; the stream resumes
  // with everything committed from this instant on.
  slave->SeedFromSnapshot(master_->binlog_size() - 1);
}

Status ReplicationCluster::RetireSlave(int i) {
  if (i < 0 || i >= num_slaves()) {
    return Status::InvalidArgument("no such slave");
  }
  if (retired_[static_cast<size_t>(i)]) return Status::Ok();
  retired_[static_cast<size_t>(i)] = true;
  master_->DetachSlave(slaves_[static_cast<size_t>(i)].get());
  return Status::Ok();
}

Status ReplicationCluster::ReviveSlave(int i) {
  if (i < 0 || i >= num_slaves()) {
    return Status::InvalidArgument("no such slave");
  }
  if (!retired_[static_cast<size_t>(i)]) return Status::Ok();
  retired_[static_cast<size_t>(i)] = false;
  SlaveNode* slave = slaves_[static_cast<size_t>(i)].get();
  master_->AttachSlave(slave);
  // Fetch the events missed while detached over the regular dump path; the
  // stream resumes exactly where this slave's SQL thread stopped.
  slave->RequestResync();
  return Status::Ok();
}

bool ReplicationCluster::IsSlaveRetired(int i) const {
  return i >= 0 && i < num_slaves() && retired_[static_cast<size_t>(i)];
}

Status ReplicationCluster::PromoteSlave(int i) {
  if (i < 0 || i >= num_slaves() || retired_[static_cast<size_t>(i)]) {
    return Status::InvalidArgument("no such active slave");
  }
  SlaveNode* winner = slaves_[static_cast<size_t>(i)].get();
  MasterNode* old_master = master_;
  masters_.push_back(std::make_unique<MasterNode>(
      &provider_->simulation(), &provider_->network(), &winner->instance(),
      winner->cost_model(), winner->ReleaseDatabase()));
  master_ = masters_.back().get();
  master_->database().set_row_based_repl_enabled(
      old_master->database().row_based_repl_enabled());
  master_->SetShipOptions(old_master->ship_options());
  master_->SetSynchronousReplication(old_master->synchronous());
  // Neither the winner nor an offline survivor is attached to the new
  // master, so retiring either is just the mark.
  retired_[static_cast<size_t>(i)] = true;
  for (size_t j = 0; j < slaves_.size(); ++j) {
    if (retired_[j]) continue;
    if (slaves_[j]->online()) {
      CopyMasterOnto(slaves_[j].get());
      master_->AttachSlave(slaves_[j].get());
    } else {
      retired_[j] = true;
    }
  }
  return Status::Ok();
}

Status ReplicationCluster::LoadDirect(
    const std::function<Status(
        const std::function<Status(const std::string&)>&)>& load) {
  CLOUDDB_RETURN_IF_ERROR(load([this](const std::string& sql) {
    return RunDirect(sql, /*on_slaves=*/false);
  }));
  for (auto& slave : slaves_) CopyMasterOnto(slave.get());
  return Status::Ok();
}

Status ReplicationCluster::ExecuteEverywhereDirect(const std::string& sql) {
  return RunDirect(sql, /*on_slaves=*/true);
}

Status ReplicationCluster::RunDirect(const std::string& sql, bool on_slaves) {
  // Compile once on the master, execute everywhere. With the statement
  // cache on, repeated shapes (one INSERT form per table in a load) parse
  // once across the whole run of calls, not once per statement, and the
  // master's template runs on every copy; otherwise the master's parse does.
  db::Database& master = master_->database();
  std::shared_ptr<const db::CompiledSql> compiled = master.Compile(sql);
  // These statements must not replicate: every copy gets them directly.
  master.set_binlog_suppressed(true);
  Result<db::ExecResult> result = master.Execute(compiled);
  master.set_binlog_suppressed(false);
  if (!result.ok()) return result.status();
  if (!on_slaves) return Status::Ok();
  for (auto& slave : slaves_) {
    Result<db::ExecResult> copy = slave->database().Execute(compiled);
    if (!copy.ok()) return copy.status();
  }
  return Status::Ok();
}

void ReplicationCluster::SetStatementCacheEnabled(bool enabled) {
  master_->database().set_statement_cache_enabled(enabled);
  for (auto& slave : slaves_) {
    slave->database().set_statement_cache_enabled(enabled);
  }
}

void ReplicationCluster::SetRowBasedReplication(bool enabled) {
  // Capture happens only on the master (slaves never binlog); slaves detect
  // writeset events per event, so there is no slave-side switch to flip.
  master_->database().set_row_based_repl_enabled(enabled);
}

void ReplicationCluster::SetBinlogBatchSize(int batch_size) {
  ShipOptions options = master_->ship_options();
  options.batch_size = batch_size;
  master_->SetShipOptions(options);
}

bool ReplicationCluster::FullyReplicated() const {
  int64_t size = master_->database().binlog().size();
  for (size_t i = 0; i < slaves_.size(); ++i) {
    if (retired_[i]) continue;  // detached: intentionally frozen
    if (slaves_[i]->applied_index() != size - 1) return false;
    if (slaves_[i]->relay_backlog() != 0) return false;
  }
  return true;
}

bool ReplicationCluster::Converged() const {
  for (size_t i = 0; i < slaves_.size(); ++i) {
    if (retired_[i]) continue;  // detached: intentionally frozen
    // The heartbeat table intentionally diverges: NOW_MICROS() re-evaluates
    // per replica (that divergence *is* the delay measurement).
    if (!db::Database::ContentsEqual(master_->database(),
                                     slaves_[i]->database(), {"heartbeat"})) {
      return false;
    }
  }
  return true;
}

}  // namespace clouddb::repl
