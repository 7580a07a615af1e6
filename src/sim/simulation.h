#ifndef CLOUDDB_SIM_SIMULATION_H_
#define CLOUDDB_SIM_SIMULATION_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/time_types.h"
#include "sim/event_callback.h"

namespace clouddb::sim {

/// Discrete-event simulation kernel.
///
/// The entire system (clients, proxy, database nodes, network, NTP) runs as
/// callbacks on a single event queue, which makes every experiment
/// deterministic: events at equal timestamps fire in scheduling order
/// (FIFO tie-break by sequence number). There are no real threads; simulated
/// "threads" (e.g. a slave's SQL apply thread) are event-driven state
/// machines.
///
/// Storage layout: event callbacks live in a slab of generation-tagged
/// records (`records_`, slot-indexed, recycled through a free list) and the
/// time-ordered queue is a binary heap of plain {when, seq, slot, gen}
/// entries. Cancellation bumps the record's generation — O(1) and
/// allocation-free — leaving a stale heap entry (tombstone) that is skipped
/// when popped, or swept early if tombstones come to dominate the heap.
class Simulation {
 public:
  using Callback = EventCallback;

  /// Handle to a scheduled one-shot event; allows cancellation (e.g.
  /// timeouts). Copyable; must not outlive the Simulation.
  class EventHandle {
   public:
    EventHandle() = default;

    /// Cancels the event if it has not fired yet. Idempotent; O(1).
    void Cancel() {
      if (sim_ != nullptr) sim_->CancelEvent(slot_, gen_);
    }
    bool valid() const { return sim_ != nullptr; }

   private:
    friend class Simulation;
    EventHandle(Simulation* sim, uint32_t slot, uint32_t gen)
        : sim_(sim), slot_(slot), gen_(gen) {}
    Simulation* sim_ = nullptr;
    uint32_t slot_ = 0;
    uint32_t gen_ = 0;
  };

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time in microseconds.
  SimTime Now() const { return now_; }

  /// Schedules `cb` to run at absolute simulated time `when` (clamped to
  /// `Now()` if in the past). Returns a cancellable handle.
  EventHandle ScheduleAt(SimTime when, Callback cb);

  /// Schedules `cb` to run `delay` microseconds from now.
  EventHandle ScheduleAfter(SimDuration delay, Callback cb) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }

  /// Runs until the queue is empty.
  void Run();

  /// Runs until the queue is empty or simulated time would exceed `deadline`.
  /// Events at exactly `deadline` are executed, and afterwards `Now()` is
  /// pinned to `deadline` even if the last event fired earlier.
  void RunUntil(SimTime deadline);

  /// Advances `Now()` to `t` without executing events (requires that no
  /// live pending event is earlier than `t`; used by tests).
  void FastForwardTo(SimTime t);

  /// Number of events executed so far.
  int64_t events_executed() const { return events_executed_; }
  /// Number of live (not cancelled) events currently pending.
  size_t pending_events() const { return live_pending_; }
  /// Cancelled events whose heap entries (tombstones) have not been popped or
  /// compacted away yet. Observability only; does not affect execution.
  size_t cancelled_pending() const { return cancelled_pending_; }

 private:
  friend class Timer;
  friend class PeriodicTimer;

  /// One slab slot. `gen` changes whenever the armed occurrence identified by
  /// {slot, gen} is consumed (fired or cancelled), so stale heap entries and
  /// stale EventHandles can never touch a successor event in the same slot.
  struct EventRecord {
    Callback cb;
    SimDuration period = 0;  // > 0: kernel re-arms in place (PeriodicTimer)
    uint32_t gen = 0;
    bool armed = false;
    bool persistent = false;  // slot owned by a Timer/PeriodicTimer
  };
  struct HeapEntry {
    SimTime when;
    int64_t seq;
    uint32_t slot;
    uint32_t gen;
  };
  /// Min-heap order: earliest `when`, then FIFO by `seq`.
  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  // Hand-rolled binary heap (min at heap_[0]). Manual sift primitives let
  // the periodic-timer fire path re-arm by overwriting the top entry and
  // sifting once, instead of a pop_heap + push_heap round trip.
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void PopTop();

  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot) { free_slots_.push_back(slot); }
  /// Pushes a heap entry for `slot`'s current generation.
  void Push(uint32_t slot, SimTime when);
  /// O(1) cancel of the one-shot occurrence {slot, gen}; no-op if stale.
  void CancelEvent(uint32_t slot, uint32_t gen);
  /// Pops tombstones off the heap top. Returns false iff the heap is empty
  /// (post: heap empty, or front() is a live event).
  bool PruneStale();
  /// Sweeps all tombstones out of the heap once they dominate it.
  void MaybeCompact();
  /// Pops and executes the earliest live event. Returns false if none.
  bool Step();

  // Timer plumbing (persistent slots owned by Timer/PeriodicTimer).
  uint32_t BindTimerSlot(Callback cb, SimDuration period);
  void RebindTimerSlot(uint32_t slot, Callback cb, SimDuration period);
  void ArmTimer(uint32_t slot, SimTime when);
  void DisarmTimer(uint32_t slot);
  void ReleaseTimerSlot(uint32_t slot);
  bool TimerArmed(uint32_t slot) const { return records_[slot].armed; }

  SimTime now_ = 0;
  int64_t next_seq_ = 0;
  int64_t events_executed_ = 0;
  size_t live_pending_ = 0;
  size_t cancelled_pending_ = 0;
  // std::deque: references to records stay valid while the slab grows, so a
  // persistent slot's callback can run in place even if it schedules events.
  std::deque<EventRecord> records_;
  std::vector<uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;
};

/// Re-armable one-shot timer bound to a single slab slot: the callback is
/// stored once and every (re-)arm or cancel is O(1) and allocation-free. Use
/// for recurring work whose next deadline is recomputed per occurrence
/// (retry backoff, think times, timeout guards); for a fixed cadence use
/// PeriodicTimer. Must not outlive the Simulation it is bound to, and
/// Bind must not be called from the timer's own callback (re-arming is fine).
class Timer {
 public:
  Timer() = default;
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() {
    if (sim_ != nullptr) sim_->ReleaseTimerSlot(slot_);
  }

  /// Stores `cb` in the kernel slab. Rebinding (while not inside the timer's
  /// own callback) replaces the callback and cancels any pending occurrence.
  void Bind(Simulation* sim, Simulation::Callback cb);
  bool bound() const { return sim_ != nullptr; }

  /// Arms (or re-arms, superseding a pending occurrence) at absolute time
  /// `when`, clamped to Now(). Requires Bind first.
  void ArmAt(SimTime when);
  /// Arms (or re-arms) `delay` from now; negative delays clamp to 0.
  void ArmAfter(SimDuration delay);
  /// Cancels the pending occurrence, if any. Idempotent; O(1).
  void Cancel();
  bool armed() const { return sim_ != nullptr && sim_->TimerArmed(slot_); }

 private:
  Simulation* sim_ = nullptr;
  uint32_t slot_ = 0;
};

/// Fixed-cadence timer: fires every `period` starting at Start()+period. The
/// kernel re-arms the slot in place *before* invoking the callback, so a tick
/// never constructs a closure and the callback may call Stop() on its own
/// timer. Start must not be called from the timer's own callback; like
/// Timer, it must not outlive its Simulation.
class PeriodicTimer {
 public:
  PeriodicTimer() = default;
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;
  ~PeriodicTimer() {
    if (sim_ != nullptr) sim_->ReleaseTimerSlot(slot_);
  }

  /// Binds (or rebinds) the callback and schedules the first tick at
  /// Now() + period. `period` must be > 0.
  void Start(Simulation* sim, SimDuration period, Simulation::Callback cb);
  /// Stops ticking; Start may be called again later. Safe from the timer's
  /// own callback (cancels the already re-armed next tick).
  void Stop();
  bool running() const { return sim_ != nullptr && sim_->TimerArmed(slot_); }

 private:
  Simulation* sim_ = nullptr;
  uint32_t slot_ = 0;
};

}  // namespace clouddb::sim

#endif  // CLOUDDB_SIM_SIMULATION_H_
