#include "sim/simulation.h"
#include "common/time_types.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace clouddb::sim {

namespace {
// Tombstone sweep threshold: compact only once stale entries are both
// numerous in absolute terms and the majority of the heap, so steady-state
// workloads (few cancels) never pay the O(n) sweep.
constexpr size_t kCompactMinTombstones = 64;
}  // namespace

uint32_t Simulation::AllocSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  records_.emplace_back();
  return static_cast<uint32_t>(records_.size() - 1);
}

void Simulation::SiftUp(size_t i) {
  HeapEntry e = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (!Earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulation::SiftDown(size_t i) {
  HeapEntry e = heap_[i];
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && Earlier(heap_[child + 1], heap_[child])) ++child;
    if (!Earlier(heap_[child], e)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

void Simulation::PopTop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

void Simulation::Push(uint32_t slot, SimTime when) {
  heap_.push_back(HeapEntry{when, next_seq_++, slot, records_[slot].gen});
  SiftUp(heap_.size() - 1);
}

Simulation::EventHandle Simulation::ScheduleAt(SimTime when, Callback cb) {
  if (when < now_) when = now_;
  uint32_t slot = AllocSlot();
  EventRecord& rec = records_[slot];
  rec.cb = std::move(cb);
  rec.period = 0;
  rec.armed = true;
  rec.persistent = false;
  ++live_pending_;
  Push(slot, when);
  return EventHandle(this, slot, rec.gen);
}

void Simulation::CancelEvent(uint32_t slot, uint32_t gen) {
  EventRecord& rec = records_[slot];
  if (rec.gen != gen || !rec.armed) return;  // already fired or cancelled
  ++rec.gen;  // orphans the heap entry and any copied handles
  rec.armed = false;
  rec.cb.Reset();  // release captured resources eagerly
  --live_pending_;
  ++cancelled_pending_;
  if (!rec.persistent) FreeSlot(slot);
  MaybeCompact();
}

bool Simulation::PruneStale() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (records_[top.slot].gen == top.gen) return true;
    PopTop();
    --cancelled_pending_;
  }
  return false;
}

void Simulation::MaybeCompact() {
  if (cancelled_pending_ < kCompactMinTombstones ||
      cancelled_pending_ * 2 < heap_.size()) {
    return;
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) {
                               return records_[e.slot].gen != e.gen;
                             }),
              heap_.end());
  // Floyd heapify: sift interior nodes down, deepest first.
  for (size_t i = heap_.size() / 2; i-- > 0;) SiftDown(i);
  cancelled_pending_ = 0;
}

bool Simulation::Step() {
  if (!PruneStale()) return false;
  const HeapEntry top = heap_.front();
  EventRecord& rec = records_[top.slot];
  assert(rec.armed && top.when >= now_);
  now_ = top.when;
  ++events_executed_;
  ++rec.gen;  // consume this occurrence before the callback runs
  if (rec.persistent && rec.period > 0) {
    // Periodic fast path: re-arm by overwriting the just-fired top entry —
    // one sift instead of pop + push. Re-arming *before* the callback runs
    // means the callback observes the next tick as pending and may Stop()
    // it; `rec.armed` and `live_pending_` are unchanged
    // (one occurrence fired, one armed). `rec` stays valid across the
    // callback's own scheduling because records_ is a deque.
    heap_.front() = HeapEntry{now_ + rec.period, next_seq_++, top.slot,
                              rec.gen};
    SiftDown(0);
    rec.cb();
  } else if (rec.persistent) {
    // One-shot Timer slot: disarm, then invoke in place.
    rec.armed = false;
    --live_pending_;
    PopTop();
    rec.cb();
  } else {
    rec.armed = false;
    --live_pending_;
    PopTop();
    // Move the callback out and recycle the slot before invoking, so the
    // callback can schedule into the just-freed slot without aliasing.
    Callback cb = std::move(rec.cb);
    FreeSlot(top.slot);
    cb();
  }
  return true;
}

void Simulation::Run() {
  while (Step()) {
  }
}

void Simulation::RunUntil(SimTime deadline) {
  while (PruneStale() && heap_.front().when <= deadline) Step();
  if (now_ < deadline) now_ = deadline;
}

void Simulation::FastForwardTo(SimTime t) {
  PruneStale();
  assert(heap_.empty() || heap_.front().when >= t);
  if (t > now_) now_ = t;
}

uint32_t Simulation::BindTimerSlot(Callback cb, SimDuration period) {
  uint32_t slot = AllocSlot();
  EventRecord& rec = records_[slot];
  rec.cb = std::move(cb);
  rec.period = period;
  rec.armed = false;
  rec.persistent = true;
  return slot;
}

void Simulation::RebindTimerSlot(uint32_t slot, Callback cb,
                                 SimDuration period) {
  DisarmTimer(slot);
  EventRecord& rec = records_[slot];
  rec.cb = std::move(cb);
  rec.period = period;
}

void Simulation::ArmTimer(uint32_t slot, SimTime when) {
  EventRecord& rec = records_[slot];
  if (rec.armed) {  // supersede the pending occurrence
    ++rec.gen;
    --live_pending_;
    ++cancelled_pending_;
  }
  rec.armed = true;
  ++live_pending_;
  Push(slot, when < now_ ? now_ : when);
}

void Simulation::DisarmTimer(uint32_t slot) {
  EventRecord& rec = records_[slot];
  if (!rec.armed) return;
  ++rec.gen;
  rec.armed = false;
  --live_pending_;
  ++cancelled_pending_;
  MaybeCompact();
}

void Simulation::ReleaseTimerSlot(uint32_t slot) {
  DisarmTimer(slot);
  EventRecord& rec = records_[slot];
  rec.cb.Reset();
  rec.period = 0;
  rec.persistent = false;
  ++rec.gen;  // orphan any stale handles/entries before the slot is recycled
  FreeSlot(slot);
}

void Timer::Bind(Simulation* sim, Simulation::Callback cb) {
  assert(sim != nullptr);
  if (sim_ == nullptr) {
    sim_ = sim;
    slot_ = sim_->BindTimerSlot(std::move(cb), 0);
  } else {
    assert(sim == sim_);
    sim_->RebindTimerSlot(slot_, std::move(cb), 0);
  }
}

void Timer::ArmAt(SimTime when) {
  assert(sim_ != nullptr);
  sim_->ArmTimer(slot_, when);
}

void Timer::ArmAfter(SimDuration delay) {
  assert(sim_ != nullptr);
  ArmAt(sim_->Now() + (delay < 0 ? 0 : delay));
}

void Timer::Cancel() {
  if (sim_ != nullptr) sim_->DisarmTimer(slot_);
}

void PeriodicTimer::Start(Simulation* sim, SimDuration period,
                          Simulation::Callback cb) {
  assert(sim != nullptr && period > 0);
  if (sim_ == nullptr) {
    sim_ = sim;
    slot_ = sim_->BindTimerSlot(std::move(cb), period);
  } else {
    assert(sim == sim_);
    sim_->RebindTimerSlot(slot_, std::move(cb), period);
  }
  sim_->ArmTimer(slot_, sim_->Now() + period);
}

void PeriodicTimer::Stop() {
  if (sim_ != nullptr) sim_->DisarmTimer(slot_);
}

}  // namespace clouddb::sim
