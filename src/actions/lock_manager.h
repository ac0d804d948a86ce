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
//
// Each owner has an index of the resources it holds or waits on, in the
// order it first asked for each. Ending an owner walks only that index:
// release_all releases in that order (so waiters on its resources resume
// in the owner's acquisition order, whatever the table's layout), and
// first ends the owner's own queued requests with Aborted — an action
// that has ended must never be granted a lock it waited for.
#pragma once

#include <compare>
#include <cstdint>
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

// What a lock covers: one part of one object. An object server locks
// the whole object; the group view database locks the Sv and St lists of
// an entry separately (sec 4.1: "each such list is concurrency
// controlled independently using locks").
using LockPart = std::uint8_t;
inline constexpr LockPart kObjectPart = 0;  // logged as "obj:<uid>"
inline constexpr LockPart kSvPart = 1;      // logged as "sv:<uid>"
inline constexpr LockPart kStPart = 2;      // logged as "st:<uid>"

struct LockKey {
  Uid object;
  LockPart part = kObjectPart;
  friend std::strong_ordering operator<=>(const LockKey&, const LockKey&) = default;
};

// The key as logs spell it; built only when a log line is written.
std::string to_string(const LockKey& key);

}  // namespace gv::actions

template <>
struct std::hash<gv::actions::LockKey> {
  std::size_t operator()(const gv::actions::LockKey& k) const noexcept {
    return std::hash<gv::Uid>{}(k.object) ^ k.part;
  }
};

namespace gv::actions {

class LockManager {
 public:
  explicit LockManager(sim::Simulator& sim) : sim_(sim) {}

  static constexpr sim::SimTime kDefaultTimeout = 100 * sim::kMillisecond;

  // Acquire `mode` on `key` for action `owner`, waiting (FIFO) up
  // to `timeout`. Re-entrant: if the owner already holds an
  // equal-or-stronger mode this is a no-op; if it holds a weaker mode
  // this is a promotion, which succeeds iff no OTHER holder conflicts
  // with `mode`: Read->ExcludeWrite succeeds alongside other readers;
  // Read->Write does not.
  //
  // `ancestors` (optional) are the owner's enclosing actions: Arjuna lock
  // inheritance lets a nested action acquire a lock its ancestor holds —
  // holders from the family never conflict with the request.
  sim::Task<Status> acquire(LockKey key, LockMode mode, Uid owner,
                            sim::SimTime timeout = kDefaultTimeout,
                            std::vector<Uid> ancestors = {});

  // End `owner` (action end): in the owner's acquisition order, resolve
  // each of its queued requests with Aborted and release each lock it
  // holds, waking the waiters behind.
  void release_all(const Uid& owner);

  // Drop every lock and waiter (node crash: lock state is volatile).
  void reset();

  // Nested-action commit: every lock held by `child` becomes held by
  // `parent` (merging modes: parent keeps the stronger). A resource the
  // parent already holds keeps its place in the parent's order; the
  // child's others follow the parent's, in the child's order. The
  // child's queued requests end with Aborted, as in release_all.
  void transfer(const Uid& child, const Uid& parent);

  bool holds(const LockKey& key, const Uid& owner, LockMode at_least) const;
  std::size_t holder_count(const LockKey& key) const;
  // Whether some action holds `key` in a mode that lets it write.
  bool held_for_update(const LockKey& key) const;

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
  // FIFO: requests join at the back and leave from anywhere. A short
  // vector, so a free key's first entry allocates nothing for it.
  using Waiters = std::vector<Waiter>;
  struct Entry {
    std::vector<Holder> holders;
    Waiters waiters;
  };

  static bool stronger_or_equal(LockMode a, LockMode b) noexcept;
  bool grantable(const Entry& e, const Uid& owner, LockMode mode,
                 const std::vector<Uid>& ancestors) const;
  // Give `owner` `mode` on `key`, index it and log it: a promotion
  // raises the owner's holder, a grant adds one.
  void grant(Entry& e, const LockKey& key, const Uid& owner, LockMode mode, bool promotion);
  // Index `key` under `owner` unless it is there already.
  void note(const Uid& owner, const LockKey& key);
  // Dequeue `w`, stop its timer and resolve it with `s`; the next waiter.
  Waiters::iterator finish(Entry& e, Waiters::iterator w, Status s);
  // Resolve every request `owner` has queued on `e` with Aborted.
  void cancel_waits(Entry& e, const Uid& owner);
  void pump(const LockKey& key);  // grant eligible waiters

  sim::Simulator& sim_;
  // Hashed; only reset() walks it, and its order reaches nothing there.
  std::unordered_map<LockKey, Entry> table_;
  // owner -> the resources it holds or waits on, in the order it first
  // asked for each.
  std::unordered_map<Uid, std::vector<LockKey>> owned_;
  Counters counters_;
};

}  // namespace gv::actions
