// The group view database (sec 4, sec 5).
//
// "The two databases have been implemented as a single Arjuna object,
// referred to as the group view database." (sec 5). GroupViewDb is that
// object, and the one place that runs actions on it. It holds two plain
// tables — the Object Server table (Sv and use lists,
// naming/object_server_db.h) and the Object State table (St,
// naming/object_state_db.h) — and performs the paper's operations on
// them under the control of atomic actions (sec 3.1):
//
//  * lock-controlled: each entry has two lock keys, Sv and St
//    (sec 4.1: "each such list is concurrency controlled independently
//    using locks"), so a binder's update lock on Sv never blocks another
//    client's GetView or validate of St; one LockManager supports READ /
//    WRITE / EXCLUDE-WRITE;
//  * transactional: it is one 2PC participant ("gvdb" in its node's
//    TxnRegistry). Mutations apply immediately under the protecting lock
//    and push an undo record naming the entry and the part of it that
//    they edit; abort rolls back, nested commit re-keys undo records and
//    locks to the parent action (Arjuna recovery-record style);
//  * persistent: on top-level commit it rewrites, in the local
//    ObjectStore's keyed table, the one stable record of each object the
//    action touched, taking only the touched parts from memory; a crash
//    reloads the table. An action that touched nothing writes nothing.
//
// Services and the operations they serve:
//
//   osdb   Insert, Remove, Decrement, PurgeClient (sec 4.1, 4.1.3);
//          bind_read(object, client), S1's naming read (fig 6): St(A)
//          and GetServer's Sv(A), both read-locked under the client
//          action; and bind(object, client, token, ...), the whole S2/S3
//          binder action (figs 7, 8) in one call: St(A) read-locked
//          under the client action, the Removes and a released binding's
//          Decrement, the pick of servers, their Increment, and the
//          commit, with Sv's lock held for the call alone (DESIGN.md
//          sec 26).
//   ostdb  GetView, Exclude, Include (sec 4.2).
//   gvdb   For the client-side group-view cache (sec 6: "caching of
//          binding information"): get_views(uids...), a lock-free batched
//          snapshot of Sv(A)+St(A) with their view epochs and this node's
//          incarnation (also read by the stores' partition-heal view
//          probe), and validate(items...), the commit-time staleness
//          check that read-locks every named entry and compares epochs;
//          sent last by a read-only action, it also carries the
//          database's vote (DESIGN.md sec 25).
//
// It also feeds a small ring of recently invalidated UIDs that the RPC
// layer piggybacks on every reply leaving this node, so client caches
// learn of membership changes without any additional messages. The paper
// assumes the naming service is always available (sec 3.1); the chaos
// harness therefore never crashes the naming node, though the database
// does persist itself and recover correctly if it happens.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "actions/atomic_action.h"
#include "actions/lock_manager.h"
#include "actions/orphan_resolver.h"
#include "naming/object_server_db.h"
#include "naming/object_state_db.h"
#include "store/object_store.h"

namespace gv::core {
class TraceRecorder;
class MetricsRegistry;
}  // namespace gv::core

namespace gv::naming {

// The database's 2PC participant name and the cache service's name.
inline constexpr const char* kGvdbService = "gvdb";
// Well-known UID naming the store table that holds the per-object
// stable records.
inline constexpr Uid kGvdbUid{0xDBull, 1};

// The parts of one entry an edit can touch, as bits; each is also the
// part of its lock key, so a commit persists only the parts it edited.
using EntryParts = std::uint8_t;
using actions::kStPart;
using actions::kSvPart;

struct NamingConfig {
  // How long a database operation waits for an entry lock before giving
  // up with LockRefused (the caller's action then aborts). Kept below the
  // RPC call timeout so the caller learns the precise reason.
  sim::SimTime lock_wait = 30 * sim::kMillisecond;
};

// Exclude is the paper's subtle case (sec 4.2.1): it happens during
// commit processing while the committing client's server typically holds
// only a READ lock on the entry — and other clients may share that read
// lock. The database therefore supports two exclusion policies:
//
//   PromoteToWrite   — the classic scheme: promote read -> write; refused
//                      whenever the entry is shared (the client aborts);
//   ExcludeWriteLock — the paper's fix: promote to the type-specific
//                      EXCLUDE-WRITE lock, compatible with readers.
//
// The ablation benchmark bench_ablation_exclude_lock measures the abort
// rate difference between the two.
enum class ExcludePolicy { ExcludeWriteLock, PromoteToWrite };

// S1's naming read: Sv(A) with its use lists, and St(A).
struct BindView {
  SvView sv;
  StView st;
  GV_WIRE_FIELDS(sv, st)
};

// An S2/S3 bind's answer: the servers it picked and recorded the client
// on, in Sv order (none: no server left to bind), and St(A). `active`
// says the object was in use, so only servers with non-zero use counts
// could be picked (sec 4.1.3(i)).
struct BindReply {
  std::vector<NodeId> servers;
  StView st;
  bool active = false;
  GV_WIRE_FIELDS(servers, st, active)
};

// One object's Sv(A) and St(A) with their view epochs.
struct ObjectViews {
  std::uint64_t sv_epoch = 0;
  std::vector<NodeId> sv;
  std::uint64_t st_epoch = 0;
  std::vector<NodeId> st;
  GV_WIRE_FIELDS(sv_epoch, sv, st_epoch, st)
};

// One object's fill inside a batched get_views reply.
struct ViewFill {
  Uid object;
  std::optional<ObjectViews> view;  // empty: the object is not registered
  GV_WIRE_FIELDS(object, view)
};

struct GetViewsReply {
  std::uint64_t incarnation = 0;  // naming node incarnation at snapshot
  std::vector<ViewFill> views;
  GV_WIRE_FIELDS(incarnation, views)
};

// One object's staleness check inside a batched validate call.
struct ValidateItem {
  Uid object;
  std::uint64_t sv_epoch = 0;
  std::uint64_t st_epoch = 0;
  GV_WIRE_FIELDS(object, sv_epoch, st_epoch)
};

// The reply piggyback (sec 6): the naming node's incarnation and the
// current epochs of recently bumped entries, as validate items.
struct Piggyback {
  std::uint64_t incarnation = 0;
  std::vector<ValidateItem> bumps;
  GV_WIRE_FIELDS(incarnation, bumps)
};

// The gvdb service's methods, declared once for the registration and the
// client stubs below. validate takes (action, incarnation, items, may
// leave) and answers the database's vote.
inline constexpr rpc::Rpc<GetViewsReply(std::vector<Uid>)> kGvdbGetViews{kGvdbService,
                                                                         "get_views"};
inline constexpr rpc::Rpc<actions::Vote(Uid, std::uint64_t, std::vector<ValidateItem>, bool)>
    kGvdbValidate{kGvdbService, "validate"};
// (object, client action)
inline constexpr rpc::Rpc<BindView(Uid, Uid)> kOsdbBindRead{kOsdbService, "bind_read"};
// (object, client action, bind token, servers wanted, servers to avoid,
// servers to Remove, binding to release)
inline constexpr rpc::Rpc<BindReply(Uid, Uid, Uid, std::uint32_t, std::vector<NodeId>,
                                    std::vector<NodeId>, Uid)>
    kOsdbBind{kOsdbService, "bind"};

class GroupViewDb final : public actions::ServerParticipant {
 public:
  GroupViewDb(sim::Node& node, store::ObjectStore& store, rpc::RpcEndpoint& endpoint,
              actions::TxnRegistry& txns, NamingConfig cfg = {},
              ExcludePolicy policy = ExcludePolicy::ExcludeWriteLock);

  // Register a new persistent object with its server and store node sets
  // (|Sv| and |St| cardinalities select the regimes of figs 2-5).
  void create_object(const Uid& object, std::vector<NodeId> sv, std::vector<NodeId> st);

  const ObjectServerDb& servers() const noexcept { return servers_; }
  const ObjectStateDb& states() const noexcept { return states_; }

  // ---- ServerParticipant -------------------------------------------------
  sim::Task<actions::Vote> prepare(const Uid& txn, bool may_leave) override;
  sim::Task<Status> commit(const Uid& txn) override;
  sim::Task<Status> abort(const Uid& txn) override;
  void nested_commit(const Uid& child, const Uid& parent) override;
  void nested_abort(const Uid& child) override;

  // ---- the paper's operations (local API; the RPC glue mirrors these) ---
  // Every operation but bind and Decrement names the atomic action it
  // runs under; locks are owned by that action and held until it ends
  // (or are inherited by its parent if it is nested). This is what makes
  // scheme S1 (fig 6) hold the read lock for the whole client action
  // while S2/S3 (figs 7, 8) — whose bind action lives for one call —
  // release it immediately.

  // S1's naming read: GetView(A) and GetServer(A), both read-locked
  // under `client_action` until it ends.
  sim::Task<Result<BindView>> bind_read(NodeId from, Uid object, Uid client_action);
  // The S2/S3 binder action for client node `from`, named by `token`
  // (DESIGN.md sec 26): GetView(A) under `client_action`; then, under
  // Sv's lock held for this call alone, Remove each `remove` server,
  // Decrement the binding `release` (nil: none), pick up to `want`
  // servers — the in-use ones if any use list is non-empty, else Sv in
  // order — skipping `avoid`, Increment them under `token`, and commit.
  // A resend whose token is already recorded answers the recorded pick;
  // a token already released — by a Decrement, or by a later bind of the
  // same client — is refused with Aborted, so a late copy records nothing.
  sim::Task<Result<BindReply>> bind(NodeId from, Uid object, Uid client_action, Uid token,
                                    std::uint32_t want, std::vector<NodeId> avoid,
                                    std::vector<NodeId> remove, Uid release);
  // Insert doubles as the recovered server node's quiescence check.
  sim::Task<Status> insert(Uid object, NodeId host, Uid action);
  sim::Task<Status> remove(Uid object, NodeId host, Uid action);
  // Decrement: drop each named binding of `client` from its use lists
  // (from every server's when the binding names none) and persist the
  // entry, under a local action of its own (no client action). A token
  // that is absent, or an unknown object, is skipped. Each token is
  // remembered, so a copy of its bind that arrives later is refused.
  sim::Task<Status> decrement(NodeId client, std::vector<UseRelease> bindings);
  // Cleanup hook for the janitor (sec 4.1.3: "failure detection and
  // cleanup protocols will be required"): drop every use-list entry of a
  // crashed client, across all objects. Runs under `action`, owned by a
  // coordinator on `owner`; returns the number of bindings dropped.
  sim::Task<Result<std::uint32_t>> purge_client(NodeId client, Uid action, NodeId owner);
  sim::Task<Result<StView>> get_view(Uid object, Uid action);
  sim::Task<Status> exclude(std::vector<ExcludeItem> items, Uid action);
  sim::Task<Status> include(Uid object, NodeId host, Uid action);

  actions::LockManager& locks() noexcept { return locks_; }
  Counters& counters() noexcept { return counters_; }
  NamingConfig& config() noexcept { return cfg_; }

  // Attach the System's observability sinks (both nullable).
  void set_obs(core::TraceRecorder* trace, core::MetricsRegistry* metrics) noexcept {
    trace_ = trace;
    metrics_ = metrics;
  }

  // Record that `action`, owned by a client on `owner`, touched this
  // database (called by the RPC glue; drives orphan detection).
  void note_activity(const Uid& action, NodeId owner);

  // Abort every action whose owner is dead or that aged out. Returns the
  // number of orphans aborted. Normally triggered automatically by lock
  // contention; public for tests.
  sim::Task<std::uint32_t> sweep_orphans() { return orphans_.sweep(); }

  // The encoded Piggyback every reply of this node carries; empty when
  // nothing changed recently. Built once per change (an epoch bump or a
  // recovery) and shared by every reply until the next one.
  const Buffer& piggyback_blob();

 private:
  struct Undo {
    Uid entry;        // the entry `fn` restores; persisted if the action commits
    EntryParts part;  // the part of it `fn` restores
    std::function<void()> fn;
  };

  // Orphan cleanup (sec 4.1.3: "failure detection and cleanup protocols
  // will be required"): an action whose client node no longer answers
  // pings, or that has been idle longer than this, is presumed dead and
  // aborted locally (rollback + lock release). Without it a client that
  // crashes mid-action wedges the entry locks it held forever. Sweeps
  // are event-driven: each refused lock wait triggers one.
  static constexpr sim::SimTime kOrphanActionAge = 3 * sim::kSecond;

  void push_undo(const Uid& txn, const Uid& entry, EntryParts part, std::function<void()> fn) {
    undo_[txn].push_back(Undo{entry, part, std::move(fn)});
  }
  void rollback(const Uid& txn);
  // `txn`'s vote: ReadOnly, ending it here and releasing its locks, when
  // `may_leave` and it has nothing to persist; Yes otherwise.
  actions::Vote vote(const Uid& txn, bool may_leave);
  // Commit `txn` here and now: persist the parts of each entry it touched
  // (and `also_parts` of `also`, unless nil), release its locks and
  // forget it. commit() is this; a single-site action ends through it
  // directly.
  void commit_now(const Uid& txn, const Uid& also = Uid{}, EntryParts also_parts = 0);
  // Find `object`'s entry in `table`, lock it in `mode` for `action`
  // (waiting at most the configured lock wait) and find it again: a
  // crash recovery may reload the table while the action waits. A refusal
  // is counted under the table's "lock_refused" and triggers an orphan
  // sweep: the holder may be an action whose client is gone. A wait the
  // action's own end cancelled answers Aborted, and is neither.
  template <class Table>
  sim::Task<Result<typename Table::Entry*>> lock_entry(Table& table, Uid object,
                                                       actions::LockMode mode, Uid action);
  // Read-lock `object`'s entry in `table` under `action` and compare the
  // caller's cached epoch against the current one. Ok = still current
  // (and the lock now pins it until the action ends); StaleView = the
  // caller must rebind.
  template <class Table>
  sim::Task<Status> check_epoch(Table& table, Uid object, std::uint64_t epoch, Uid action);
  // Advance the view epoch of `object`'s `part` and queue the object for
  // the reply piggyback. Every edit of Sv or St and every rollback of one
  // bumps: a dirty bump was observable, so an epoch is never reused.
  void bump_epoch(const Uid& object, EntryParts part);
  // Rewrite `object`'s stable record with `parts` taken from memory and
  // the other parts as last committed. Entries are never deleted, so it
  // is only asked for existing ones.
  void persist(const Uid& object, EntryParts parts);
  // Drop binding `token` of `client` from every server's use list of
  // `e`; false if it held none.
  static bool drop_token(ObjectServerDb::Entry& e, NodeId client, const Uid& token);
  // Remember a released bind token, so a late copy of its bind is refused.
  void note_released(const Uid& token);
  // Replace every entry with the stable records (crash recovery).
  void load_entries(const std::map<Uid, Buffer>& records);
  void note_invalidation(const Uid& object);
  void register_rpc(rpc::RpcEndpoint& endpoint);
  Result<GetViewsReply> get_views(const std::vector<Uid>& objects);
  sim::Task<Result<actions::Vote>> validate(NodeId from, Uid action, std::uint64_t incarnation,
                                            std::vector<ValidateItem> items, bool may_leave);

  sim::Node& node_;
  store::ObjectStore& store_;
  NamingConfig cfg_;
  ExcludePolicy policy_;
  actions::LockManager locks_;
  std::unordered_map<Uid, std::vector<Undo>> undo_;
  Counters counters_;
  actions::OrphanResolver orphans_;
  core::TraceRecorder* trace_ = nullptr;
  core::MetricsRegistry* metrics_ = nullptr;
  ObjectServerDb servers_;
  ObjectStateDb states_;
  // Owners of the locks Decrement takes, one fresh UID per binding.
  UidGenerator local_actions_;
  // Bind tokens a Decrement or a bind's release dropped, most recent
  // last, bounded: a bind carrying one is refused (volatile).
  std::deque<Uid> released_;
  // Recently bumped UIDs, most recent last, deduplicated, bounded.
  std::deque<Uid> recent_bumps_;
  // piggyback_blob()'s bytes, valid while !piggyback_stale_.
  Buffer piggyback_;
  bool piggyback_stale_ = true;
};

// Client stubs for the calls that span both tables.
inline sim::Task<Result<GetViewsReply>> gvdb_get_views(rpc::RpcEndpoint& ep, NodeId naming_node,
                                                       std::vector<Uid> objects) {
  return ep.call(naming_node, kGvdbGetViews, objects);
}
// With `may_leave` a validated action that did no other work here ends
// here, and the answer is ReadOnly.
inline sim::Task<Result<actions::Vote>> gvdb_validate(rpc::RpcEndpoint& ep, NodeId naming_node,
                                                      std::uint64_t incarnation,
                                                      std::vector<ValidateItem> items, Uid action,
                                                      bool may_leave = false) {
  return ep.call(naming_node, kGvdbValidate, action, incarnation, items, may_leave);
}
inline sim::Task<Result<BindView>> osdb_bind_read(rpc::RpcEndpoint& ep, NodeId naming_node,
                                                  Uid object, Uid client_action) {
  return ep.call(naming_node, kOsdbBindRead, object, client_action);
}
inline sim::Task<Result<BindReply>> osdb_bind(rpc::RpcEndpoint& ep, NodeId naming_node,
                                              Uid object, Uid client_action, Uid token,
                                              std::uint32_t want, std::vector<NodeId> avoid,
                                              std::vector<NodeId> remove, Uid release) {
  return ep.call(naming_node, kOsdbBind, object, client_action, token, want, avoid, remove,
                 release);
}

}  // namespace gv::naming
