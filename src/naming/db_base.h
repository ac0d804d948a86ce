// The transactional core of the group view database (sec 4, sec 5).
//
// The paper builds the naming service "out of one or more persistent
// objects", so its state transitions are performed under the control of
// atomic actions (sec 3.1). Concretely the database is:
//
//  * lock-controlled: locks per object entry (sec 4.1: "each such list
//    is concurrency controlled independently using locks"), managed by a
//    LockManager supporting READ / WRITE / EXCLUDE-WRITE;
//  * transactional: mutations apply immediately under the protecting
//    lock and push an undo record naming the entry and the part of it
//    that it edits; abort rolls back, nested commit re-keys undo records
//    and locks to the parent action (Arjuna recovery-record style);
//  * persistent: on top-level commit the database rewrites, in the
//    local ObjectStore's keyed table, the stable record of each entry
//    the action touched, taking only the touched parts from memory; a
//    crash reloads the table. An action that touched nothing writes
//    nothing.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "actions/atomic_action.h"
#include "actions/lock_manager.h"
#include "actions/orphan_resolver.h"
#include "rpc/rpc.h"
#include "store/object_store.h"
#include "util/uid.h"

namespace gv::core {
class TraceRecorder;
class MetricsRegistry;
}  // namespace gv::core

namespace gv::naming {

using sim::NodeId;

// The parts of one entry that an edit can touch; each has its own lock,
// so a commit persists only the parts its action edited.
using EntryParts = std::uint8_t;

struct NamingConfig {
  // How long a database operation waits for an entry lock before giving
  // up with LockRefused (the caller's action then aborts). Kept below the
  // RPC call timeout so the caller learns the precise reason.
  sim::SimTime lock_wait = 30 * sim::kMillisecond;
};

class NamingDbBase : public actions::ServerParticipant {
 public:
  NamingDbBase(sim::Node& node, store::ObjectStore& store, rpc::RpcEndpoint& endpoint,
               Uid db_uid, NamingConfig cfg);

  // ---- ServerParticipant -------------------------------------------------
  sim::Task<actions::Vote> prepare(const Uid& txn, bool may_leave) override;
  sim::Task<Status> commit(const Uid& txn) override;
  sim::Task<Status> abort(const Uid& txn) override;
  void nested_commit(const Uid& child, const Uid& parent) override;
  void nested_abort(const Uid& child) override;

  actions::LockManager& locks() noexcept { return locks_; }
  Counters& counters() noexcept { return counters_; }
  NamingConfig& config() noexcept { return cfg_; }

  // Attach the System's observability sinks (both nullable).
  void set_obs(core::TraceRecorder* trace, core::MetricsRegistry* metrics) noexcept {
    trace_ = trace;
    metrics_ = metrics;
  }

  // Number of actions with live undo records (diagnostics).
  std::size_t active_actions() const noexcept { return undo_.size(); }

  // Record that `action`, owned by a client on `owner`, touched this
  // database (called by the RPC glue; drives orphan detection).
  void note_activity(const Uid& action, NodeId owner);

  // Abort every action whose owner is dead or that aged out. Returns the
  // number of orphans aborted. Normally triggered automatically by lock
  // contention; public for tests.
  sim::Task<std::uint32_t> sweep_orphans() { return orphans_.sweep(); }

 protected:
  ~NamingDbBase() override = default;

  void push_undo(const Uid& txn, const Uid& entry, EntryParts part, std::function<void()> fn) {
    undo_[txn].push_back(Undo{entry, part, std::move(fn)});
  }
  void rollback(const Uid& txn);

  // Commit `txn` here and now: persist the parts of each entry it touched
  // (and `also_parts` of `also`, unless nil), release its locks and
  // forget it. commit() is this; a single-site action ends through it
  // directly.
  void commit_now(const Uid& txn, const Uid& also = Uid{}, EntryParts also_parts = 0);

  // Acquire `lock` for `action`, waiting at most the configured lock
  // wait. A refusal is counted under `refused` and triggers an orphan
  // sweep: the holder may be an action whose client is gone.
  sim::Task<Status> lock_entry(std::string lock, actions::LockMode mode, Uid action,
                               const char* refused);

  // Rewrite `entry`'s stable record with `parts` taken from memory and
  // the other parts as last committed. Entries are never deleted, so it
  // is only asked for existing ones.
  virtual void persist(const Uid& entry, EntryParts parts) = 0;
  // Replace every entry with the stable records (crash recovery).
  virtual void load_entries(const std::map<Uid, Buffer>& records) = 0;

  // Orphan cleanup (sec 4.1.3: "failure detection and cleanup protocols
  // will be required"): an action whose client node no longer answers
  // pings, or that has been idle longer than this, is presumed dead and
  // aborted locally (rollback + lock release). Without it a client that
  // crashes mid-action wedges the entry locks it held forever. Sweeps
  // are event-driven: each refused lock wait triggers one.
  static constexpr sim::SimTime kOrphanActionAge = 3 * sim::kSecond;

  // Schedule an orphan sweep if none is running (fire-and-forget).
  void trigger_orphan_sweep() { (void)orphans_.trigger(); }

  sim::Node& node_;
  store::ObjectStore& store_;
  rpc::RpcEndpoint& endpoint_;
  Uid db_uid_;
  NamingConfig cfg_;
  actions::LockManager locks_;
  struct Undo {
    Uid entry;        // the entry `fn` restores; persisted if the action commits
    EntryParts part;  // the part of it `fn` restores
    std::function<void()> fn;
  };
  std::map<Uid, std::vector<Undo>> undo_;
  Counters counters_;
  actions::OrphanResolver orphans_;
  core::TraceRecorder* trace_ = nullptr;
  core::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace gv::naming
