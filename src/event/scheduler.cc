#include "event/scheduler.h"

#include <algorithm>

namespace dcrd {

EventHandle Scheduler::RearmCurrentAt(SimTime at) {
  DCRD_CHECK(in_dispatch_) << "RearmCurrent outside an event callback";
  DCRD_CHECK(!rearmed_) << "event re-armed twice in one dispatch";
  DCRD_CHECK(at >= now_) << "re-arming into the past: " << at << " < " << now_;
  rearmed_ = true;
  ++live_;
  Enqueue(at, PackK1(now_.micros(), kEngineOrigin), next_seq_++,
          running_slot_);
  return EventHandle(running_slot_);
}

bool Scheduler::Cancel(EventHandle handle) {
  Action* action = actions_.Get(handle.handle_);
  if (action == nullptr) return false;  // ran, already cancelled, or empty
  // Drop the capture now (it may own resources); the slab slot is recycled.
  // The heap entry goes stale in place and is skipped at dispatch.
  *action = nullptr;
  actions_.ReleaseLive(handle.handle_);
  DCRD_CHECK(live_ > 0);
  --live_;
  ++tombstones_;
  CompactIfStale();
  return true;
}

void Scheduler::CompactIfStale() {
  // An all-dead heap (mass cancellation, engine teardown) drops in O(1).
  if (tombstones_ == heap_.size()) {
    heap_.clear();
    tombstones_ = 0;
    return;
  }
  // Compact once live entries fall below 1/8 of the heap. The high
  // threshold keeps the rebuilt heap tiny (cheap make_heap) and each
  // rebuild removes >= 7/8 of the entries, so total compaction work is a
  // sharply geometric series — amortized O(1) per cancel. The 64-entry
  // floor keeps tiny heaps out of the path entirely.
  if (heap_.size() < 64 || tombstones_ < heap_.size() - heap_.size() / 8) {
    return;
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& entry) {
                               return actions_.Get(entry.slot) == nullptr;
                             }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  tombstones_ = 0;  // exactly the stale entries were removed
}

void Scheduler::SkipCancelled() {
  while (!heap_.empty() && actions_.Get(heap_.front().slot) == nullptr) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    heap_.pop_back();
    DCRD_CHECK(tombstones_ > 0);
    --tombstones_;
  }
}

void Scheduler::ExecuteFront() {
  const Entry entry = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
  heap_.pop_back();
  DCRD_CHECK(entry.at >= now_);
  // Renew before running: every outstanding handle (including the event's
  // own) goes stale, so a re-entrant Cancel cannot destroy the executing
  // callback, and RearmCurrentAt can relink the very same slot. The action
  // runs in place — chunked slab storage never relocates.
  Action* action = actions_.BeginDispatch(entry.slot, &running_slot_);
  in_dispatch_ = true;
  rearmed_ = false;
  now_ = entry.at;
  ++events_executed_;
  DCRD_CHECK(live_ > 0);
  --live_;
  (*action)();
  in_dispatch_ = false;
  if (!rearmed_) {
    // Drop the capture (it may own resources); the slab slot is recycled.
    *action = nullptr;
    actions_.ReleaseLive(running_slot_);
  }
}

bool Scheduler::Step() {
  SkipCancelled();
  if (heap_.empty()) return false;
  ExecuteFront();
  return true;
}

std::uint64_t Scheduler::Run() {
  // Expose the clock to DCRD_LOG for the whole run, not per Step — a
  // thread-local store per event would show up in the event-queue bench.
  internal::ScopedSimClock clock_guard(&now_);
  std::uint64_t count = 0;
  while (Step()) ++count;
  return count;
}

std::uint64_t Scheduler::RunUntil(SimTime deadline) {
  internal::ScopedSimClock clock_guard(&now_);
  std::uint64_t count = 0;
  while (true) {
    SkipCancelled();
    if (heap_.empty() || heap_.front().at > deadline) break;
    ExecuteFront();
    ++count;
  }
  if (now_ < deadline) now_ = deadline;
  return count;
}

std::uint64_t Scheduler::RunBefore(SimTime horizon) {
  internal::ScopedSimClock clock_guard(&now_);
  std::uint64_t count = 0;
  while (true) {
    SkipCancelled();
    if (heap_.empty() || heap_.front().at >= horizon) break;
    ExecuteFront();
    ++count;
  }
  return count;
}

SimTime Scheduler::NextEventTime() const {
  return heap_.empty() ? SimTime::Max() : heap_.front().at;
}

}  // namespace dcrd
