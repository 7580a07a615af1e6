#ifndef CLOUDDB_REPL_SLAVE_NODE_H_
#define CLOUDDB_REPL_SLAVE_NODE_H_

#include <deque>
#include <memory>
#include <vector>

#include "db/binlog.h"
#include "repl/db_node.h"
#include "cloud/instance.h"
#include "common/time_types.h"
#include "metrics/metric_registry.h"
#include "net/network.h"
#include "repl/cost_model.h"
#include "sim/simulation.h"

namespace clouddb::repl {

class MasterNode;

/// Transient-fault survival knobs for a slave's IO thread (see
/// SlaveNode::StartAutoResync).
struct ReconnectOptions {
  /// Fallback ack wait used when `ack_timeout` is left unset (0): one
  /// second, comfortably above any simulated RTT yet short enough that a
  /// partitioned master is detected within a keepalive period.
  static constexpr SimDuration kDefaultAckTimeout = Seconds(1);

  /// Keepalive cadence: how often an idle, connected slave confirms its
  /// position with the master (MySQL's slave_net_timeout analogue).
  SimDuration keepalive_period = Seconds(2);
  /// How long to wait for the master's dump ack before a retry; 0 means
  /// "use kDefaultAckTimeout".
  SimDuration ack_timeout = kDefaultAckTimeout;
  /// Exponential-backoff bounds for retries while the master is
  /// unreachable: initial, doubling per failure, capped.
  SimDuration initial_backoff = Millis(500);
  SimDuration max_backoff = Seconds(8);

  /// The timeout RequestResync actually arms.
  SimDuration effective_ack_timeout() const {
    return ack_timeout == 0 ? kDefaultAckTimeout : ack_timeout;
  }
};

/// A replication slave. Two logical threads, as in MySQL:
///
/// - the *IO thread* receives binlog events from the master's dump thread
///   and appends them to the relay log (no CPU charge — network I/O);
/// - the *SQL apply thread* pops relay-log events in order and re-executes
///   their statements (the master's compiled form, shipped with each event:
///   the slave never compiles), one event at a time, charged to the same
///   CPU that serves read queries. This shared FCFS queue is the resource contention
///   the paper identifies: increasing read load delays writeset application
///   and vice versa, inflating the replication delay.
///
/// Fault survival: the relay log is volatile (lost on instance crash) but
/// the applied database models a durable volume. Events dropped by
/// partitions/packet loss/crashes show up as *gaps* in the dense binlog
/// index sequence; with auto-resync enabled the slave re-requests the
/// missing range from the master, retrying with bounded exponential
/// backoff while the master is unreachable — instead of silently diverging
/// forever on the first lost event.
class SlaveNode : public DbNode {
 public:
  SlaveNode(sim::Simulation* sim, net::Network* network,
            cloud::Instance* instance, CostModel cost_model);

  /// Records the master (for synchronous-mode acks). Called by
  /// MasterNode::AttachSlave.
  void SetMaster(MasterNode* master) { master_ = master; }

  /// IO thread entry: a binlog event arrived from the master. The relay
  /// log keeps the shared event itself, not a copy. Duplicates (index
  /// already received) are dropped; a gap (index beyond the next expected)
  /// is dropped too and, under auto-resync, triggers an immediate catch-up
  /// request.
  void OnBinlogEvent(std::shared_ptr<const db::ShippedEvent> shipped);

  /// IO thread entry for a group message (see ShipOptions): unpacks the
  /// batch into the relay log in order and records the batch boundary so
  /// synchronous mode sends ONE cumulative ack per batch (group commit)
  /// instead of one per event.
  void OnBinlogBatch(
      const std::vector<std::shared_ptr<const db::ShippedEvent>>& events);

  /// Marks the slave as pre-loaded with the master's data through binlog
  /// index `applied_index` (a table copy before a mid-run attachment): drops
  /// any relay-log remnants of an earlier stream, clears a broken SQL thread
  /// and any pending reconnect attempt, and has the IO thread expect the
  /// next event after the copy point, so the first live event is not
  /// mistaken for a gap. A promotion passes -1: the new timeline is empty.
  void SeedFromSnapshot(int64_t applied_index);

  /// Index of the last fully applied event (-1 if none).
  int64_t applied_index() const { return applied_index_; }
  int64_t events_applied() const { return events_applied_; }
  /// Statements applied via the row-image fast path (no parser) vs. those
  /// that fell back to statement re-execution while row-based events were
  /// in the stream (DDL, function-bearing shapes).
  int64_t writeset_applies() const { return writeset_applies_; }
  int64_t fallback_applies() const { return fallback_applies_; }
  /// Relay-log events received but not yet applied.
  size_t relay_backlog() const { return relay_log_.size() + (applying_ ? 1 : 0); }
  /// True if an apply error stopped replication (MySQL stops the SQL thread).
  bool replication_broken() const { return broken_; }

  // --- Transient-fault survival (IO-thread reconnect) ---

  /// Starts the keepalive/catch-up loop: the slave periodically confirms
  /// its binlog position with the master and requests any events it is
  /// missing. While the master is unreachable (crashed, partitioned) the
  /// request is retried with exponential backoff bounded by
  /// `options.max_backoff`. Call StopAutoResync() before draining the
  /// simulation — like ClusterMonitor/HeartbeatPlugin, the keepalive is a
  /// repeating event.
  void StartAutoResync(const ReconnectOptions& options = {});
  void StopAutoResync();
  bool auto_resync_enabled() const { return auto_resync_; }

  /// One catch-up attempt right now: asks the master to re-stream events
  /// from this slave's next expected index. No-op while a request is
  /// already outstanding, the SQL thread is broken, or the node is offline.
  void RequestResync();

  /// Dump ack from the master (arrives over the network ahead of the
  /// re-streamed events): the master is reachable and will send events up
  /// to `master_binlog_size`. Resets the backoff.
  void OnResyncAck(int64_t master_binlog_size);

  /// Reconnect observability.
  int64_t resync_requests_sent() const { return resync_requests_sent_; }
  int64_t resync_acks_received() const { return resync_acks_received_; }
  int64_t gap_events_detected() const { return gap_events_detected_; }
  SimDuration current_backoff() const { return backoff_; }

 protected:
  // DbNode: crash loses the relay log and any half-applied event; restart
  // rejoins the stream via resync (when enabled).
  void OnPowerEvent(bool up) override;

 private:
  void MaybeStartApply();
  /// Index of the next event the IO thread expects from the wire.
  int64_t NextExpectedIndex() const { return next_expected_; }
  void KeepaliveTick();
  void OnAckTimeout();

  MasterNode* master_ = nullptr;
  std::deque<std::shared_ptr<const db::ShippedEvent>> relay_log_;
  /// Batch-end indexes still awaiting their cumulative ack, in order. While
  /// the front mark is ahead of applied_index_, per-event acks are
  /// suppressed; reaching the mark sends one ack covering the whole batch.
  std::deque<int64_t> batch_ack_marks_;
  bool applying_ = false;
  bool broken_ = false;
  int64_t applied_index_ = -1;
  int64_t events_applied_ = 0;
  int64_t writeset_applies_ = 0;
  int64_t fallback_applies_ = 0;
  int64_t next_expected_ = 0;
  /// Bumped when the SQL thread's world is rebased (snapshot seed,
  /// power loss); an in-flight apply job from an older epoch must not touch
  /// the rebased database when its CPU callback finally fires.
  int64_t apply_epoch_ = 0;
  metrics::Ewma* apply_delay_ms_ = nullptr;  // owned by metrics_

  // Reconnect state.
  bool auto_resync_ = false;
  ReconnectOptions reconnect_;
  bool awaiting_ack_ = false;
  SimDuration backoff_ = 0;
  int64_t resync_requests_sent_ = 0;
  int64_t resync_acks_received_ = 0;
  int64_t gap_events_detected_ = 0;
  // Persistent kernel slots: the keepalive re-arms in place every period,
  // and the per-request ack timeout / backoff retry arm and cancel the same
  // two slots for the lifetime of the node (no per-request allocation).
  sim::PeriodicTimer keepalive_;
  sim::Timer ack_timer_;
  sim::Timer retry_timer_;
};

}  // namespace clouddb::repl

#endif  // CLOUDDB_REPL_SLAVE_NODE_H_
