// Coroutine task types for the discrete-event simulation.
//
// Every "process" in the simulated distributed system — a client
// application, an RPC server loop, a checkpoint daemon — is a lazy
// Task<T> coroutine scheduled by the Simulator. Awaiting a Task starts it
// and transfers control back when it completes (symmetric transfer, so
// arbitrarily deep call chains don't grow the stack).
//
// Tasks are single-owner, move-only; the Task object owns the coroutine
// frame. Detached top-level processes are launched via Simulator::spawn.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <utility>

#include <sanitizer/asan_interface.h>  // poisoning; no-ops without AddressSanitizer

#include "util/trace_context.h"

namespace gv::sim {

template <typename T>
class Task;

namespace detail {

// Coroutine frames are the largest allocations on the hot path, and a
// handful of sizes recur millions of times. Freed frames go to a free
// list per 64-byte size class and are reused from there; frames larger
// than the biggest class use the global heap. Free blocks are poisoned
// under AddressSanitizer, so a use after free of a frame is still caught.
class FramePool {
 public:
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kClasses = 32;  // frames up to 2 KiB

  static void* allocate(std::size_t n) {
    const std::size_t c = (n - 1) / kClassBytes;
    if (c >= kClasses) return ::operator new(n);
    Block* b = free_[c];
    if (b == nullptr) return ::operator new((c + 1) * kClassBytes);
    ASAN_UNPOISON_MEMORY_REGION(b, (c + 1) * kClassBytes);
    free_[c] = b->next;
    return b;
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t c = (n - 1) / kClassBytes;
    if (c >= kClasses) return ::operator delete(p);
    Block* b = static_cast<Block*>(p);
    b->next = free_[c];
    free_[c] = b;
    ASAN_POISON_MEMORY_REGION(b, (c + 1) * kClassBytes);
  }

 private:
  struct Block {
    Block* next;
  };

  // The simulation runs on one thread; a list per thread keeps a block
  // on the thread that freed it all the same.
  static inline thread_local Block* free_[kClasses] = {};
};

struct TaskPromiseBase {
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept { FramePool::deallocate(p, n); }

  std::coroutine_handle<> continuation;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      // Resume whoever co_awaited us; if nobody did (detached driver),
      // return to the scheduler.
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept {
    // Expected failures travel as Result<T>; an escaped exception is a
    // logic error in the library itself.
    std::terminate();
  }
};

template <typename T>
struct TaskPromise : TaskPromiseBase {
  std::optional<T> value;

  Task<T> get_return_object() noexcept;
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct TaskPromise<void> : TaskPromiseBase {
  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;

  Task() noexcept = default;
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return handle_ != nullptr; }
  bool done() const noexcept { return handle_ && handle_.done(); }

  // Awaiting a Task: start it lazily with the awaiter as continuation.
  // The awaiter captures the caller's trace context at the co_await and
  // restores it on resumption, so a child task cannot leak its causal
  // context (spans it opened) into the parent.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      TraceContext ctx;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;  // start the child coroutine
      }
      T await_resume() {
        set_current_trace_context(ctx);
        if constexpr (!std::is_void_v<T>) {
          assert(handle.promise().value.has_value());
          return std::move(*handle.promise().value);
        }
      }
    };
    return Awaiter{handle_, current_trace_context()};
  }

  // For the detached driver: direct access (library-internal).
  std::coroutine_handle<promise_type> release() noexcept { return std::exchange(handle_, nullptr); }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() noexcept {
  return Task<T>{std::coroutine_handle<TaskPromise<T>>::from_promise(*this)};
}

inline Task<void> TaskPromise<void>::get_return_object() noexcept {
  return Task<void>{std::coroutine_handle<TaskPromise<void>>::from_promise(*this)};
}

}  // namespace detail

}  // namespace gv::sim
