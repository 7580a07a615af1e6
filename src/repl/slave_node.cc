#include "repl/slave_node.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "repl/master_node.h"
#include "cloud/instance.h"
#include "common/time_types.h"
#include "db/binlog.h"
#include "db/database.h"
#include "db/writeset_apply.h"
#include "net/network.h"
#include "repl/cost_model.h"
#include "sim/simulation.h"

namespace clouddb::repl {

SlaveNode::SlaveNode(sim::Simulation* sim, net::Network* network,
                     cloud::Instance* instance, CostModel cost_model)
    : DbNode(sim, network, instance, std::move(cost_model),
             /*enable_binlog=*/false) {
  ack_timer_.Bind(sim_, [this] { OnAckTimeout(); });
  retry_timer_.Bind(sim_, [this] { RequestResync(); });
  metrics_.AddProbe("repl.slave.applied_index", [this] {
    return static_cast<double>(applied_index_);
  });
  metrics_.AddProbe("repl.slave.relay_backlog", [this] {
    return static_cast<double>(relay_backlog());
  });
  metrics_.AddProbe("repl.slave.events_applied", [this] {
    return static_cast<double>(events_applied_);
  });
  metrics_.AddProbe("repl.slave.broken",
                    [this] { return broken_ ? 1.0 : 0.0; });
  // Push-model sampler on the apply path: raw per-event delay as the slave
  // observes it (local apply time minus the master's commit stamp, so it
  // includes the clock offset — the paper's uncorrected measurement).
  apply_delay_ms_ = metrics_.AddEwma("repl.slave.apply_delay_ms");
  metrics_.AddProbe("repl.apply.writeset", [this] {
    return static_cast<double>(writeset_applies_);
  });
  metrics_.AddProbe("repl.apply.fallback", [this] {
    return static_cast<double>(fallback_applies_);
  });
}

void SlaveNode::OnBinlogBatch(
    const std::vector<std::shared_ptr<const db::ShippedEvent>>& events) {
  if (broken_ || !online()) return;
  int64_t before = next_expected_;
  for (const std::shared_ptr<const db::ShippedEvent>& shipped : events) {
    OnBinlogEvent(shipped);
  }
  // Register the batch boundary only if the batch advanced the stream (a
  // pure-duplicate batch from an overlapping resync has nothing to ack).
  if (next_expected_ > before) {
    batch_ack_marks_.push_back(next_expected_ - 1);
  }
}

void SlaveNode::OnBinlogEvent(std::shared_ptr<const db::ShippedEvent> shipped) {
  if (broken_ || !online()) return;
  int64_t index = shipped->index;
  if (index < next_expected_) {
    // Already received (a resync stream overlapping live pushes).
    return;
  }
  if (index > next_expected_) {
    // Events went missing on the wire (partition window, packet loss, or a
    // crash that ate the relay log). Applying past the gap would silently
    // diverge, so drop and — when enabled — fetch the missing range.
    ++gap_events_detected_;
    if (auto_resync_) RequestResync();
    return;
  }
  next_expected_ = index + 1;
  relay_log_.push_back(std::move(shipped));
  MaybeStartApply();
}

void SlaveNode::MaybeStartApply() {
  if (applying_ || broken_ || relay_log_.empty() || database_ == nullptr) {
    return;
  }
  applying_ = true;
  std::shared_ptr<const db::ShippedEvent> shipped =
      std::move(relay_log_.front());
  relay_log_.pop_front();

  // The apply cost comes from the master's compiled statement, or, for a
  // covered writeset, from its row images: neither touches the lexer or
  // the parser here.
  bool covered =
      shipped->writeset.has_value() && shipped->writeset->row != nullptr;
  SimDuration cost =
      covered ? cost_model_.EstimateWritesetApply()
              : cost_model_.EstimateApply(shipped->compiled->statement());

  int64_t epoch = apply_epoch_;
  instance_->cpu().Submit(cost, [this, epoch, covered,
                                 shipped = std::move(shipped)] {
    // Rebased while this job was queued, or promoted: the database went to
    // the new master, and this job must not touch it.
    if (epoch != apply_epoch_ || database_ == nullptr) return;
    bool ok;
    if (covered) {
      ok = db::ApplyStatementWriteset(database_.get(), *shipped->writeset).ok();
      if (ok) ++writeset_applies_;
    } else {
      if (shipped->writeset.has_value()) ++fallback_applies_;
      ok = ExecuteNow(shipped->compiled).ok();
    }
    if (!ok) {
      // MySQL stops the SQL thread on an apply error; replication on this
      // slave halts until an operator intervenes.
      broken_ = true;
      applying_ = false;
      return;
    }
    applied_index_ = shipped->index;
    ++events_applied_;
    apply_delay_ms_->Observe(
        static_cast<double>(instance_->LocalNowMicros() -
                            shipped->commit_micros) /
        1000.0);
    // Group-commit ack: inside a batch, hold the ack until the batch-end
    // event applies, then send one cumulative ack for the whole range.
    bool ack_due = true;
    if (!batch_ack_marks_.empty()) {
      if (applied_index_ >= batch_ack_marks_.front()) {
        batch_ack_marks_.pop_front();
      } else {
        ack_due = false;
      }
    }
    if (ack_due && master_ != nullptr && master_->synchronous()) {
      int64_t index = shipped->index;
      MasterNode* master = master_;
      network_->Send(node_id(), master->node_id(), /*size_bytes=*/48,
                     [master, this, index] {
                       master->OnSlaveAck(node_id(), index);
                     });
    }
    applying_ = false;
    MaybeStartApply();
  });
}

void SlaveNode::StartAutoResync(const ReconnectOptions& options) {
  assert(options.keepalive_period > 0 && options.ack_timeout > 0);
  assert(options.initial_backoff > 0 &&
         options.max_backoff >= options.initial_backoff);
  reconnect_ = options;
  auto_resync_ = true;
  backoff_ = 0;
  keepalive_.Start(sim_, reconnect_.keepalive_period,
                   [this] { KeepaliveTick(); });
}

void SlaveNode::StopAutoResync() {
  auto_resync_ = false;
  awaiting_ack_ = false;
  backoff_ = 0;
  keepalive_.Stop();
  ack_timer_.Cancel();
  retry_timer_.Cancel();
}

void SlaveNode::KeepaliveTick() {
  if (!auto_resync_) return;
  // Skip when a request is in flight or a backoff retry is already
  // scheduled — the keepalive is the steady-state probe, not the retry path.
  if (!awaiting_ack_ && backoff_ == 0) RequestResync();
}

void SlaveNode::RequestResync() {
  if (awaiting_ack_ || broken_ || !online() || database_ == nullptr ||
      master_ == nullptr) {
    return;
  }
  awaiting_ack_ = true;
  ++resync_requests_sent_;
  int64_t from = next_expected_;
  MasterNode* master = master_;
  network_->Send(node_id(), master->node_id(), /*size_bytes=*/48,
                 [master, this, from] { master->OnDumpRequest(this, from); });
  // Re-arming supersedes any stale timeout from an earlier request, so the
  // armed timeout always refers to the request just sent.
  ack_timer_.ArmAfter(reconnect_.effective_ack_timeout());
}

void SlaveNode::OnAckTimeout() {
  if (!awaiting_ack_) return;  // ack arrived, or the attempt was abandoned
  awaiting_ack_ = false;
  backoff_ = backoff_ == 0
                 ? reconnect_.initial_backoff
                 : std::min(backoff_ * 2, reconnect_.max_backoff);
  // The retry consumes its backoff slot; RequestResync's keepalive gate
  // reopens once this attempt is acked.
  retry_timer_.ArmAfter(backoff_);
}

void SlaveNode::OnResyncAck(int64_t master_binlog_size) {
  (void)master_binlog_size;  // events follow on the same FIFO path
  if (!awaiting_ack_) return;  // stale ack from a superseded attempt
  awaiting_ack_ = false;
  backoff_ = 0;
  ++resync_acks_received_;
  ack_timer_.Cancel();
}

void SlaveNode::OnPowerEvent(bool up) {
  DbNode::OnPowerEvent(up);
  if (!up) {
    // The relay log and the event being applied lived in memory; the CPU
    // Halt() already invalidated the in-flight apply job (and the epoch
    // bump covers a plain set_online-style outage without a CPU halt).
    relay_log_.clear();
    batch_ack_marks_.clear();
    applying_ = false;
    ++apply_epoch_;
    awaiting_ack_ = false;
    ack_timer_.Cancel();
    retry_timer_.Cancel();
    return;
  }
  // Reboot: resume the stream from the last durably applied position.
  next_expected_ = applied_index_ + 1;
  backoff_ = 0;
  if (auto_resync_ && !broken_) RequestResync();
}

void SlaveNode::SeedFromSnapshot(int64_t applied_index) {
  relay_log_.clear();
  batch_ack_marks_.clear();
  applied_index_ = applied_index;
  next_expected_ = applied_index + 1;
  broken_ = false;
  applying_ = false;
  ++apply_epoch_;
  // Abandon any catch-up attempt against the previous stream.
  awaiting_ack_ = false;
  backoff_ = 0;
  ack_timer_.Cancel();
  retry_timer_.Cancel();
}

}  // namespace clouddb::repl
