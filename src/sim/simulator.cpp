#include "sim/simulator.h"

#include <algorithm>

namespace gv::sim {

namespace {

// Detached driver: starts eagerly, awaits the task, self-destroys at end.
// Its frame comes from the task frames' pool: every served request and
// spawned process has one.
struct Detached {
  struct promise_type {
    static void* operator new(std::size_t n) { return detail::FramePool::allocate(n); }
    static void operator delete(void* p, std::size_t n) noexcept {
      detail::FramePool::deallocate(p, n);
    }
    Detached get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
};

Detached drive(Task<> task) { co_await std::move(task); }

}  // namespace

std::uint64_t Simulator::schedule(SimTime delay, Event fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  // Capture the scheduler's causal context so timers and deliveries run
  // attributed to the work that armed them (util/trace_context.h).
  s.ctx = current_trace_context();
  heap_.push_back(Key{now_ + delay, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), KeyOrder{});
  return static_cast<std::uint64_t>(s.gen) << 32 | slot;
}

void Simulator::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  ++s.gen;
  free_slots_.push_back(slot);
}

void Simulator::cancel(std::uint64_t event_id) {
  const auto slot = static_cast<std::uint32_t>(event_id);
  const auto gen = static_cast<std::uint32_t>(event_id >> 32);
  // A stale id (the event ran, or was cancelled, and the slot moved on)
  // names nothing.
  if (slot < slots_.size() && slots_[slot].gen == gen) release(slot);
}

void Simulator::spawn(Task<> task) { drive(std::move(task)); }

bool Simulator::pop_and_run() {
  std::pop_heap(heap_.begin(), heap_.end(), KeyOrder{});
  const Key key = heap_.back();
  heap_.pop_back();
  Slot& s = slots_[key.slot];
  if (s.gen != key.gen) return false;  // cancelled
  // Take the closure out before running it: it may schedule events, which
  // can grow the slab and move `s`.
  Event fn = std::move(s.fn);
  const TraceContext ctx = s.ctx;
  release(key.slot);
  now_ = key.at;
  ++processed_;
  set_current_trace_context(ctx);
  fn();
  set_current_trace_context({});  // no leakage between events
  return true;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (!heap_.empty())
    if (pop_and_run()) ++n;
  return n;
}

std::size_t Simulator::run_until(SimTime limit) {
  std::size_t n = 0;
  // Re-check the limit after every pop: a cancelled key at the top must
  // not let the next live event run early.
  while (!heap_.empty() && heap_.front().at <= limit)
    if (pop_and_run()) ++n;
  if (now_ < limit) now_ = limit;
  return n;
}

}  // namespace gv::sim
