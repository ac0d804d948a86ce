// One-shot future/promise bridging events and coroutines.
//
// The resolver side (e.g. an arriving RPC reply, or a timeout timer) calls
// set_value; the consumer co_awaits the future. First resolution wins:
// a reply that arrives after the timeout already resolved the future is
// silently dropped, which is exactly the at-most-once semantics the RPC
// layer wants.
//
// Resumption is scheduled through the Simulator as a zero-delay event
// rather than inline, so resolvers never re-enter consumer stacks. A
// node's coroutine awaits with on(node), under sim/node.h's crash rule.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "sim/node.h"
#include "sim/simulator.h"

namespace gv::sim {

template <typename T>
class SimFuture;

template <typename T>
class SimPromise {
 public:
  explicit SimPromise(Simulator& sim) : state_(std::make_shared<State>(&sim)) {}

  SimFuture<T> future() const { return SimFuture<T>{state_}; }

  // Resolve. Returns true if this call won (first resolution).
  bool set_value(T value) const {
    if (state_->value.has_value()) return false;
    state_->value.emplace(std::move(value));
    if (state_->waiter) {
      auto h = std::exchange(state_->waiter, nullptr);
      state_->sim->schedule(0, [h, node = state_->node, epoch = state_->epoch] {
        if (node == nullptr || node->current(epoch)) h.resume();
      });
    }
    return true;
  }

  bool resolved() const noexcept { return state_->value.has_value(); }

 private:
  friend class SimFuture<T>;
  struct State {
    explicit State(Simulator* s) : sim(s) {}
    Simulator* sim;
    std::optional<T> value;
    std::coroutine_handle<> waiter;
    const Node* node = nullptr;  // set by on(): the waiter's node
    std::uint64_t epoch = 0;     // ... and its incarnation
  };
  std::shared_ptr<State> state_;
};

template <typename T>
class [[nodiscard]] SimFuture {
 public:
  SimFuture() = default;

  bool valid() const noexcept { return state_ != nullptr; }

  // The awaiter captures the waiter's trace context and restores it on
  // resumption: the resolver (an RPC reply, a timer) runs under its OWN
  // context, and without the restore the waiting coroutine would continue
  // under the resolver's spans.
  auto operator co_await() const noexcept {
    struct Awaiter {
      std::shared_ptr<typename SimPromise<T>::State> state;
      TraceContext ctx;
      bool await_ready() const noexcept { return state->value.has_value(); }
      void await_suspend(std::coroutine_handle<> h) noexcept { state->waiter = h; }
      T await_resume() {
        set_current_trace_context(ctx);
        return std::move(*state->value);
      }
    };
    return Awaiter{state_, current_trace_context()};
  }

  // `co_await f.on(node)`: await as a coroutine of `node`.
  const SimFuture& on(const Node& node) const noexcept {
    state_->node = &node;
    state_->epoch = node.epoch();
    return *this;
  }

 private:
  friend class SimPromise<T>;
  explicit SimFuture(std::shared_ptr<typename SimPromise<T>::State> st) : state_(std::move(st)) {}
  std::shared_ptr<typename SimPromise<T>::State> state_;
};

}  // namespace gv::sim
