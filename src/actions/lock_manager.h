// Lock manager with the paper's type-specific concurrency control.
//
// Standard two-phase locking with READ and WRITE modes, plus the paper's
// EXCLUDE-WRITE mode (sec 4.2.1): a lock that conflicts with WRITE and
// with other EXCLUDE-WRITEs but is COMPATIBLE WITH READ. It exists so a
// committing server can remove failed nodes from St(A) while other
// clients still hold read locks on the database entry for A — a plain
// read->write promotion would be refused whenever the entry is shared,
// forcing the action to abort.
//
// Locks are owned by atomic actions (identified by Uid) and held until
// the owning action ends (strict 2PL). Nested actions release their locks
// *to their parent* on commit (Arjuna inheritance) via transfer().
//
// Conflicting requests wait in FIFO order up to a timeout; a timeout
// yields LockRefused and the caller's action is expected to abort —
// this doubles as the deadlock-resolution mechanism.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/future.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "util/result.h"
#include "util/stats.h"
#include "util/uid.h"

namespace gv::actions {

enum class LockMode : std::uint8_t { Read = 0, Write = 1, ExcludeWrite = 2 };

const char* to_string(LockMode m) noexcept;

// The compatibility matrix of sec 4.2.1.
constexpr bool compatible(LockMode held, LockMode requested) noexcept {
  if (held == LockMode::Read && requested == LockMode::Read) return true;
  if (held == LockMode::Read && requested == LockMode::ExcludeWrite) return true;
  if (held == LockMode::ExcludeWrite && requested == LockMode::Read) return true;
  return false;  // Write conflicts with everything; EW conflicts with EW/Write
}

class LockManager {
 public:
  explicit LockManager(sim::Simulator& sim) : sim_(sim) {}

  static constexpr sim::SimTime kDefaultTimeout = 100 * sim::kMillisecond;

  // Acquire `mode` on `resource` for action `owner`. Re-entrant: if the
  // owner already holds an equal-or-stronger mode this is a no-op; if it
  // holds a weaker mode this is a promotion (same rules as promote()).
  //
  // `ancestors` (optional) are the owner's enclosing actions: Arjuna lock
  // inheritance lets a nested action acquire a lock its ancestor holds —
  // holders from the family never conflict with the request.
  sim::Task<Status> acquire(std::string resource, LockMode mode, Uid owner,
                            sim::SimTime timeout = kDefaultTimeout,
                            std::vector<Uid> ancestors = {});

  // Promote the owner's existing lock to `to`. Succeeds iff no OTHER
  // holder conflicts with `to`. Read->ExcludeWrite succeeds alongside
  // other readers; Read->Write does not. Waits (FIFO) up to timeout.
  sim::Task<Status> promote(std::string resource, LockMode to, Uid owner,
                            sim::SimTime timeout = kDefaultTimeout);

  // Release all locks held by `owner` (action end), waking waiters.
  void release_all(const Uid& owner);

  // Drop every lock and waiter (node crash: lock state is volatile).
  void reset();

  // Release the owner's lock on a single resource.
  void release(const std::string& resource, const Uid& owner);

  // Nested-action commit: every lock held by `child` becomes held by
  // `parent` (merging modes: parent keeps the stronger).
  void transfer(const Uid& child, const Uid& parent);

  bool holds(const std::string& resource, const Uid& owner, LockMode at_least) const;
  std::size_t holder_count(const std::string& resource) const;
  // Whether some action holds `resource` in a mode that lets it write.
  bool held_for_update(const std::string& resource) const;

  // Number of resources with live holders or waiters — the lock-table
  // depth gauge the metrics registry samples.
  std::size_t table_depth() const noexcept { return table_.size(); }

  Counters& counters() noexcept { return counters_; }

 private:
  struct Holder {
    Uid owner;
    LockMode mode;
  };
  struct Waiter {
    Uid owner;
    LockMode mode;
    bool is_promotion;
    std::vector<Uid> ancestors;
    sim::SimPromise<Status> promise;
    std::uint64_t timer_id;
  };
  struct Entry {
    std::vector<Holder> holders;
    std::deque<Waiter> waiters;
  };

  static bool stronger_or_equal(LockMode a, LockMode b) noexcept;
  bool grantable(const Entry& e, const Uid& owner, LockMode mode,
                 const std::vector<Uid>& ancestors) const;
  void pump(const std::string& resource);  // grant eligible waiters
  sim::Task<Status> enqueue(std::string resource, LockMode mode, Uid owner, bool is_promotion,
                            sim::SimTime timeout, std::vector<Uid> ancestors);

  sim::Simulator& sim_;
  std::unordered_map<std::string, Entry> table_;
  Counters counters_;
};

}  // namespace gv::actions
