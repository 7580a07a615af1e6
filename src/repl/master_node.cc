#include "repl/master_node.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <utility>

#include "repl/slave_node.h"
#include "cloud/instance.h"
#include "common/result.h"
#include "db/binlog.h"
#include "db/database.h"
#include "db/statement_cache.h"
#include "net/network.h"
#include "repl/cost_model.h"
#include "sim/simulation.h"

namespace clouddb::repl {

MasterNode::MasterNode(sim::Simulation* sim, net::Network* network,
                       cloud::Instance* instance, CostModel cost_model)
    : DbNode(sim, network, instance, std::move(cost_model),
             /*enable_binlog=*/true) {
  database_->binlog().SetAppendListener(
      [this](const db::BinlogEvent& event,
             const std::shared_ptr<const db::CompiledSql>& compiled) {
        OnBinlogAppend(event, compiled);
      });
  flush_timer_.Bind(sim_, [this] { FlushBatch(); });
  RegisterMasterMetrics();
}

MasterNode::MasterNode(sim::Simulation* sim, net::Network* network,
                       cloud::Instance* instance, CostModel cost_model,
                       std::unique_ptr<db::Database> adopted)
    : DbNode(sim, network, instance, std::move(cost_model),
             std::move(adopted), /*enable_binlog=*/true) {
  database_->binlog().SetAppendListener(
      [this](const db::BinlogEvent& event,
             const std::shared_ptr<const db::CompiledSql>& compiled) {
        OnBinlogAppend(event, compiled);
      });
  flush_timer_.Bind(sim_, [this] { FlushBatch(); });
  RegisterMasterMetrics();
}

void MasterNode::RegisterMasterMetrics() {
  metrics_.AddProbe("repl.master.binlog_size", [this] {
    return database_ == nullptr ? 0.0 : static_cast<double>(binlog_size());
  });
  metrics_.AddProbe("repl.master.events_pushed", [this] {
    return static_cast<double>(events_pushed_);
  });
  metrics_.AddProbe("repl.master.attached_slaves", [this] {
    return static_cast<double>(slaves_.size());
  });
  // Apply backlog on the master side: writes committed but still holding
  // their client response for slave acks (synchronous mode only).
  metrics_.AddProbe("repl.master.sync_waiters", [this] {
    return static_cast<double>(sync_waiters_.size());
  });
  batches_counter_ = metrics_.AddCounter("repl.binlog.batches");
  events_per_batch_ = metrics_.AddEwma("repl.binlog.events_per_batch");
}

void MasterNode::SetShipOptions(const ShipOptions& options) {
  FlushBatch();
  ship_ = options;
}

void MasterNode::AttachSlave(SlaveNode* slave) {
  slaves_.push_back(slave);
  slave->SetMaster(this);
  // A freshly attached slave only receives events from here on; starting
  // its cumulative ack position at the current binlog tail keeps it from
  // ever releasing waiters for events it never saw.
  acked_through_.insert_or_assign(slave->node_id(), binlog_size() - 1);
}

void MasterNode::DetachSlave(SlaveNode* slave) {
  auto it = std::find(slaves_.begin(), slaves_.end(), slave);
  if (it == slaves_.end()) return;
  slaves_.erase(it);
  // The slave's acks already counted for every waiter up to its cumulative
  // ack position. The waiters above it were still counting on it: they stop
  // waiting for it, as if it had acked them, so a scale-in during a sync
  // write does not strand the client.
  int64_t acked = -1;
  if (auto a = acked_through_.find(slave->node_id());
      a != acked_through_.end()) {
    acked = a->second;
    acked_through_.erase(a);
  }
  CountAcks(acked, std::numeric_limits<int64_t>::max());
}

void MasterNode::ExecuteAndRespond(
    const std::shared_ptr<const db::CompiledSql>& compiled,
    QueryCallback done) {
  int64_t before = database_->binlog().size();
  Result<db::ExecResult> result = ExecuteNow(compiled);
  int64_t after = database_->binlog().size();
  // Asynchronous replication (the default): respond as soon as the master
  // commits. Synchronous: hold the response until all slaves ack the event.
  if (!synchronous_ || slaves_.empty() || after == before || !result.ok()) {
    done(std::move(result));
    return;
  }
  sync_waiters_.push_back(SyncWaiter{after - 1,
                                     static_cast<int>(slaves_.size()),
                                     std::move(done), std::move(result)});
}

void MasterNode::OnSlaveAck(net::NodeId slave_node, int64_t index) {
  // Cumulative group-commit acknowledgment: a slave acking `index` has
  // applied *every* event up to and including it, so one batch-end ack
  // releases each waiter in (previously acked, index]. Per-event acks
  // degenerate to the old exact-index behavior (prev is always index - 1).
  auto [it, inserted] = acked_through_.try_emplace(slave_node, int64_t{-1});
  int64_t prev = it->second;
  if (index <= prev) return;  // stale or duplicate ack
  it->second = index;
  CountAcks(prev, index);
}

void MasterNode::CountAcks(int64_t after, int64_t through) {
  std::vector<SyncWaiter> released;
  for (auto w = sync_waiters_.begin(); w != sync_waiters_.end();) {
    if (w->index > after && w->index <= through && --w->remaining == 0) {
      released.push_back(std::move(*w));
      w = sync_waiters_.erase(w);
    } else {
      ++w;
    }
  }
  // Run callbacks after the scan: a released client may immediately issue
  // another synchronous write, which pushes onto sync_waiters_.
  for (SyncWaiter& w : released) {
    w.done(std::move(w.result));
  }
}

void MasterNode::OnDumpRequest(SlaveNode* slave, int64_t from_index) {
  if (!online() || database_ == nullptr) return;  // dead masters stay silent
  if (from_index < 0) from_index = 0;
  int64_t size = binlog_size();
  network_->Send(node_id(), slave->node_id(), /*size_bytes=*/32,
                 [slave, size] { slave->OnResyncAck(size); });
  if (ship_.batch_size <= 1) {
    for (int64_t i = from_index; i < size; ++i) {
      PushEventTo(slave, Reship(i));
    }
    return;
  }
  // Batched catch-up: re-stream the missing range in batch-size chunks so
  // a resync enjoys the same per-message amortization as the live stream.
  for (int64_t i = from_index; i < size; i += ship_.batch_size) {
    int64_t end = std::min(size, i + ship_.batch_size);
    auto batch = std::make_shared<ShippedBatch>();
    batch->reserve(static_cast<size_t>(end - i));
    for (int64_t j = i; j < end; ++j) {
      batch->push_back(Reship(j));
    }
    ShipBatchTo(slave, batch);
  }
}

std::shared_ptr<const db::ShippedEvent> MasterNode::Reship(int64_t index) {
  const db::BinlogEvent& event = database_->binlog().At(index);
  return std::make_shared<const db::ShippedEvent>(
      event, database_->Compile(event.statement));
}

void MasterNode::OnBinlogAppend(
    const db::BinlogEvent& event,
    const std::shared_ptr<const db::CompiledSql>& compiled) {
  // The one copy of the event: every slave's message shares it.
  auto shipped = std::make_shared<const db::ShippedEvent>(event, compiled);
  if (ship_.batch_size <= 1) {
    // Legacy per-event push: one message per (slave, event), immediately.
    for (SlaveNode* slave : slaves_) {
      PushEventTo(slave, shipped);
    }
    return;
  }
  pending_batch_.push_back(std::move(shipped));
  if (static_cast<int>(pending_batch_.size()) >= ship_.batch_size) {
    FlushBatch();
  } else if (pending_batch_.size() == 1) {
    flush_timer_.ArmAfter(ship_.flush_interval);
  }
}

void MasterNode::FlushBatch() {
  flush_timer_.Cancel();
  if (pending_batch_.empty()) return;
  if (!online() || database_ == nullptr) {
    // A crashed master's buffered batch dies with it; the events are still
    // in the binlog, so slaves recover the range via gap-triggered resync.
    pending_batch_.clear();
    return;
  }
  auto batch = std::make_shared<const ShippedBatch>(std::move(pending_batch_));
  pending_batch_.clear();
  for (SlaveNode* slave : slaves_) {
    ShipBatchTo(slave, batch);
  }
}

void MasterNode::ShipBatchTo(SlaveNode* slave,
                             const std::shared_ptr<const ShippedBatch>& batch) {
  ++batches_shipped_;
  ++messages_sent_;
  events_pushed_ += static_cast<int64_t>(batch->size());
  batches_counter_->Increment();
  events_per_batch_->Observe(static_cast<double>(batch->size()));
  int64_t size = 16;  // group-message header
  for (const std::shared_ptr<const db::ShippedEvent>& shipped : *batch) {
    size += shipped->wire_bytes;
  }
  // The batch and its events are shared across slaves; delivery hands the
  // slave's IO thread the batch.
  network_->Send(node_id(), slave->node_id(), size,
                 [slave, batch] { slave->OnBinlogBatch(*batch); });
}

void MasterNode::PushEventTo(
    SlaveNode* slave, const std::shared_ptr<const db::ShippedEvent>& shipped) {
  ++events_pushed_;
  ++messages_sent_;
  // The message shares the event; delivery invokes the slave's IO thread.
  network_->Send(node_id(), slave->node_id(), shipped->wire_bytes,
                 [slave, shipped] { slave->OnBinlogEvent(shipped); });
}

}  // namespace clouddb::repl
