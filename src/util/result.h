// Result / error types used across the library.
//
// We deliberately avoid exceptions for *expected* distributed-system
// outcomes (timeouts, crashed nodes, lock conflicts, aborts): these are
// ordinary control flow in a replication protocol, not programming errors.
// Exceptions remain reserved for genuine logic errors (broken invariants).
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace gv {

// Error codes for expected failures. The distinctions matter: a binder
// treats Timeout (maybe-crashed server) differently from NodeDown
// (definitely unreachable) and from LockRefused (retryable conflict).
enum class Err {
  None = 0,
  Timeout,         // no reply within the RPC deadline
  NodeDown,        // destination known to be crashed (local knowledge)
  BindingBroken,   // server crashed after the binding was created (sec 3.1)
  NotFound,        // unknown UID / key
  LockRefused,     // lock conflict; wait timed out or promotion failed
  Aborted,         // the enclosing atomic action aborted
  NoReplicas,      // Sv or St exhausted: object unavailable (sec 3.1)
  Inconsistent,    // replica divergence detected (active replication)
  AlreadyExists,   // Insert/Include of an existing entry
  NotQuiescent,    // Insert refused: object has active users (sec 4.1.2)
  BadRequest,      // malformed RPC payload
  Conflict,        // generic optimistic/version conflict
  StaleView,       // cached group-view epoch no longer current (rebind + retry)
  StorageFault,    // a stable-storage write failed (injected IO error)
  NotSoleMember,   // point-to-point invocation refused: the replica group has other members
  JoinRefused,     // activated, but the object's replica group refused the join
  NotActivated,    // the server cannot activate the object: it lacks the class, or the state
                   // does not restore
};

const char* to_string(Err e) noexcept;

// Minimal expected<T, Err>. std::expected is C++23; this is the subset we
// need, with asserting accessors so misuse fails loudly in tests.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)), err_(Err::None) {}  // NOLINT(google-explicit-constructor)
  Result(Err err) : err_(err) { assert(err != Err::None); }       // NOLINT(google-explicit-constructor)

  bool ok() const noexcept { return err_ == Err::None; }
  explicit operator bool() const noexcept { return ok(); }
  Err error() const noexcept { return err_; }

  T& value() & {
    assert(ok());
    return *value_;
  }
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }
  T value_or(T fallback) const { return ok() ? *value_ : std::move(fallback); }

  T* operator->() {
    assert(ok());
    return &*value_;
  }
  const T* operator->() const {
    assert(ok());
    return &*value_;
  }

 private:
  std::optional<T> value_;
  Err err_;
};

// Result<void>: success/failure with no payload.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() : err_(Err::None) {}
  Result(Err err) : err_(err) {}  // NOLINT(google-explicit-constructor)

  bool ok() const noexcept { return err_ == Err::None; }
  explicit operator bool() const noexcept { return ok(); }
  Err error() const noexcept { return err_; }

 private:
  Err err_;
};

using Status = Result<void>;

inline Status ok_status() { return Status{}; }

}  // namespace gv
