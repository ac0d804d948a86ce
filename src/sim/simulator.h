// Deterministic discrete-event simulator.
//
// A single-threaded event loop over (time, sequence) ordered events.
// Determinism contract: with the same seed and the same program, every run
// produces the identical event order — ties are broken by insertion
// sequence number, and all randomness flows from the simulator's Rng tree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/task.h"
#include "util/rng.h"
#include "util/trace_context.h"

namespace gv::sim {

// Simulated time in microseconds.
using SimTime = std::uint64_t;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1000;
constexpr SimTime kSecond = 1000 * 1000;

// A scheduled event's closure: a move-only callable that holds closures
// of up to kInline bytes in place and larger ones on the heap. A
// resumption (handle, node, incarnation), a gated sleep and a datagram
// delivery (endpoints and the Buffer) all fit, so scheduling them
// allocates nothing.
class Event {
 public:
  static constexpr std::size_t kInline = 48;

  Event() noexcept = default;
  template <typename F, typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Event>>>
  Event(F&& fn) {  // NOLINT: implicit, like std::function
    using Fn = std::decay_t<F>;
    if constexpr (fits<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }
  Event(Event&& other) noexcept { take(other); }
  Event& operator=(Event&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  ~Event() { reset(); }

  void operator()() { ops_->call(buf_); }
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

 private:
  struct Ops {
    void (*call)(void*);
    void (*move)(void* to, void* from) noexcept;  // leaves `from` destroyed
    void (*destroy)(void*) noexcept;
  };
  template <typename Fn>
  static constexpr bool fits = sizeof(Fn) <= kInline &&
                               alignof(Fn) <= alignof(std::max_align_t) &&
                               std::is_nothrow_move_constructible_v<Fn>;
  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* to, void* from) noexcept {
        ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
        static_cast<Fn*>(from)->~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }};
  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* to, void* from) noexcept { ::new (to) Fn*(*static_cast<Fn**>(from)); },
      [](void* p) noexcept { delete *static_cast<Fn**>(p); }};

  void take(Event& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->move(buf_, other.buf_);
    ops_ = std::exchange(other.ops_, nullptr);
  }

  alignas(std::max_align_t) unsigned char buf_[kInline];
  const Ops* ops_ = nullptr;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }
  Rng& rng() noexcept { return rng_; }

  // Schedule `fn` to run `delay` after now. Returns an event id usable
  // with cancel(); cancelling an event that already ran is a no-op.
  std::uint64_t schedule(SimTime delay, Event fn);
  void cancel(std::uint64_t event_id);

  // Launch a detached coroutine process. It runs until its first
  // suspension immediately (still "at" the current simulated time).
  void spawn(Task<> task);

  // Awaitable: suspend the current coroutine for `delay` simulated time.
  // The trace context is captured at suspension and restored at
  // resumption, so the sleeping coroutine keeps its own causal context.
  // It resumes only if `may_resume()` then holds (Node::sleep's rule).
  template <typename Gate>
  auto sleep(SimTime delay, Gate may_resume) {
    struct Awaiter {
      Simulator* sim;
      SimTime delay;
      Gate may_resume;
      TraceContext ctx = current_trace_context();
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->schedule(delay, [h, may_resume = may_resume] {
          if (may_resume()) h.resume();
        });
      }
      void await_resume() const noexcept { set_current_trace_context(ctx); }
    };
    return Awaiter{this, delay, std::move(may_resume)};
  }
  auto sleep(SimTime delay) { return sleep(delay, [] { return true; }); }

  // Run until the event queue drains or `limit` is reached. Returns the
  // number of events processed. run_until never runs an event scheduled
  // after `limit`, and leaves now() at `limit` if it was earlier.
  std::size_t run();
  std::size_t run_until(SimTime limit);

  bool idle() const noexcept { return heap_.empty(); }
  std::size_t events_processed() const noexcept { return processed_; }

 private:
  // The heap orders small keys; each closure lives in a slab slot that is
  // recycled as soon as its event runs or is cancelled. A key whose `gen`
  // no longer matches its slot's is a cancelled event, skipped when popped.
  struct Key {
    SimTime at;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct KeyOrder {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  struct Slot {
    Event fn;
    TraceContext ctx;  // causal context captured at schedule time
    std::uint32_t gen = 0;
  };

  void release(std::uint32_t slot);  // bump gen, drop closure, recycle
  bool pop_and_run();                // false if the popped key was cancelled

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
  std::vector<Key> heap_;  // std::push_heap/pop_heap under KeyOrder
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Rng rng_;
};

}  // namespace gv::sim
