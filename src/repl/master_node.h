#ifndef CLOUDDB_REPL_MASTER_NODE_H_
#define CLOUDDB_REPL_MASTER_NODE_H_

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "repl/db_node.h"
#include "cloud/instance.h"
#include "common/result.h"
#include "common/time_types.h"
#include "db/binlog.h"
#include "db/database.h"
#include "db/statement_cache.h"
#include "metrics/metric_registry.h"
#include "net/network.h"
#include "repl/cost_model.h"
#include "sim/simulation.h"

namespace clouddb::repl {

class SlaveNode;

/// Binlog shipping policy. With `batch_size <= 1` every appended event is
/// pushed to every slave as its own network message (the legacy path —
/// byte-identical wire charging and event ordering). With a larger batch
/// size the master accumulates events and ships one *group message* per
/// (slave, batch), flushing when the batch fills or `flush_interval`
/// elapses since the first buffered event — MySQL's group-committed binlog
/// dump, and the knob behind the `binlog_batch_size` ablation.
struct ShipOptions {
  int batch_size = 1;
  SimDuration flush_interval = Millis(5);
};

/// The replication master. All writes execute here; every committed write
/// statement is appended to the binlog as one event and pushed (a "binlog
/// dump thread" per slave) over the network to each attached slave.
///
/// Replication is asynchronous by default, exactly as in the paper: the
/// client's write completes as soon as the master commits, and writesets
/// propagate later. Synchronous mode (the §II trade-off, available as an
/// ablation) holds the client response until every slave acknowledges the
/// event's application.
class MasterNode : public DbNode {
 public:
  MasterNode(sim::Simulation* sim, net::Network* network,
             cloud::Instance* instance, CostModel cost_model);

  /// Promotion constructor: becomes the master over an adopted database (a
  /// promoted slave's data), enabling binary logging on it. The new binlog
  /// starts empty; slaves attach from index 0 of the *new* timeline.
  MasterNode(sim::Simulation* sim, net::Network* network,
             cloud::Instance* instance, CostModel cost_model,
             std::unique_ptr<db::Database> adopted);

  /// Starts streaming binlog events with index >= the current binlog size to
  /// `slave` (events appended before attachment are assumed pre-loaded).
  void AttachSlave(SlaveNode* slave);

  /// Stops streaming to `slave` (elastic scale-in). The slave keeps its data
  /// and keeps serving whatever is already queued; it simply receives no
  /// further events. No-op when the slave is not attached. Any synchronous
  /// waiter still counting this slave's ack is released as if it had acked.
  void DetachSlave(SlaveNode* slave);

  void SetSynchronousReplication(bool sync) { synchronous_ = sync; }
  bool synchronous() const { return synchronous_; }

  /// Changes the shipping policy. Any events buffered under the old policy
  /// are flushed first so nothing is stranded across the switch.
  void SetShipOptions(const ShipOptions& options);
  const ShipOptions& ship_options() const { return ship_; }

  const std::vector<SlaveNode*>& slaves() const { return slaves_; }
  int64_t binlog_size() const { return database_->binlog().size(); }

  /// Ack from a slave that it applied event `index` (synchronous mode).
  /// Invoked via a network message from the slave.
  void OnSlaveAck(net::NodeId slave_node, int64_t index);

  /// Catch-up request from a reconnecting slave (arrives over the network):
  /// re-stream binlog events with index >= `from_index`, each compiled once
  /// through this master's database, so a re-shipped event carries its
  /// compiled form like a live one. The dump ack is sent first on the same
  /// FIFO path, so the slave sees ack, then events, in order. A
  /// crashed/offline master stays silent — the slave's backoff handles it.
  void OnDumpRequest(SlaveNode* slave, int64_t from_index);

  int64_t events_pushed() const { return events_pushed_; }
  /// Network messages carrying binlog events (per-event sends plus group
  /// messages). The shipping-cost figure the batching ablation reduces.
  int64_t messages_sent() const { return messages_sent_; }
  /// Group messages shipped (0 unless batching is enabled).
  int64_t batches_shipped() const { return batches_shipped_; }

 protected:
  // DbNode:
  void ExecuteAndRespond(const std::shared_ptr<const db::CompiledSql>& compiled,
                         QueryCallback done) override;

 private:
  /// One group message's events; slaves share the batch and its events.
  using ShippedBatch = std::vector<std::shared_ptr<const db::ShippedEvent>>;

  void RegisterMasterMetrics();

  struct SyncWaiter {
    int64_t index;
    int remaining;
    QueryCallback done;
    Result<db::ExecResult> result;
  };

  /// One slave's acks for the events in (after, through]: each waiter there
  /// counts one slave fewer, and those left with none get their response.
  void CountAcks(int64_t after, int64_t through);
  /// Wraps each appended event, with the statement it logs, in one shared
  /// ShippedEvent and pushes or buffers it for every slave.
  void OnBinlogAppend(const db::BinlogEvent& event,
                      const std::shared_ptr<const db::CompiledSql>& compiled);
  /// Binlog event `index` wrapped for a resync, compiled again here.
  std::shared_ptr<const db::ShippedEvent> Reship(int64_t index);
  void PushEventTo(SlaveNode* slave,
                   const std::shared_ptr<const db::ShippedEvent>& shipped);
  /// Ships the pending batch — one group message per slave — and rearms.
  void FlushBatch();
  void ShipBatchTo(SlaveNode* slave,
                   const std::shared_ptr<const ShippedBatch>& batch);

  std::vector<SlaveNode*> slaves_;
  bool synchronous_ = false;
  std::deque<SyncWaiter> sync_waiters_;
  /// Highest binlog index each slave has cumulatively acknowledged. One
  /// batch-end ack covers every event in (previous, acked] — group commit.
  std::map<net::NodeId, int64_t> acked_through_;
  ShipOptions ship_;
  ShippedBatch pending_batch_;
  sim::Timer flush_timer_;
  int64_t events_pushed_ = 0;
  int64_t messages_sent_ = 0;
  int64_t batches_shipped_ = 0;
  metrics::Counter* batches_counter_ = nullptr;   // owned by metrics_
  metrics::Ewma* events_per_batch_ = nullptr;     // owned by metrics_
};

}  // namespace clouddb::repl

#endif  // CLOUDDB_REPL_MASTER_NODE_H_
