// Object servers: activation and operation execution (sec 2.2, 3.1).
//
// Every node that can "run a server" for objects hosts an
// ObjectServerHost. Activation loads the object's latest committed state
// from one of the St(A) stores and instantiates its class; invocation
// applies operations under object-level locks owned by the calling atomic
// action, keeping per-action before-images so aborts restore the exact
// prior state. The host is a transactional participant: nested commits
// re-key locks and undo data to the parent, top-level commit/abort
// release them.
//
// The first invocation of an object in an action may activate it: when
// one server is bound, it carries the object's class, St and join flag,
// and the server activates the object as activate() would before it
// applies the operation (DESIGN.md sec 28).
//
// Active replication invokes through a group call (RpcEndpoint::call_group):
// the client multicasts the objsrv.invoke request to the object's replica
// group (reliable, totally ordered — sec 2.3), each functioning member
// serves it like a point-to-point invocation and replies, and the client
// takes the first reply. A replica that crashes simply stops replying and
// is dropped from the delivery view; the client masks the failure as long
// as one member survives.
//
// All of this state is VOLATILE: a node crash destroys every activated
// object (their latest committed states live in the object stores).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "actions/atomic_action.h"
#include "actions/lock_manager.h"
#include "actions/orphan_resolver.h"
#include "replication/state_machine.h"
#include "rpc/group_comm.h"
#include "rpc/rpc.h"
#include "store/object_store.h"
#include "util/uid_table.h"

namespace gv::replication {

using sim::NodeId;

inline constexpr const char* kObjSrvService = "objsrv";

// The activation an invocation may carry: what activate() takes.
struct Activation {
  std::string class_name;
  std::vector<NodeId> st;
  bool join = false;  // join the object's replica group (active replication)
  GV_WIRE_FIELDS(class_name, st, join)
};

// The probe's deadline (the binder's failure detector), and what an
// activating invocation adds to the data-path call deadline: a load that
// first waits out one dead St store still answers within it.
inline constexpr sim::SimTime kActivateTimeout = 60 * sim::kMillisecond;

struct ObjectStatus {
  bool active = false;
  std::uint64_t version = 0;
  bool modified = false;
};

class ObjectServerHost final : public actions::ServerParticipant {
 public:
  ObjectServerHost(sim::Node& node, rpc::RpcEndpoint& endpoint, actions::TxnRegistry& txns,
                   rpc::GroupComm& gc, ClassRegistry& classes);

  // ---- local API (RPC methods mirror these) ----------------------------
  // Activate `object` of class `class_name`, loading the latest committed
  // state from one of `st_nodes` (tried in order; suspect/down stores are
  // skipped). Idempotent if already active. With `join` (active
  // replication) the server also joins the object's replica group, on
  // the idempotent path too; a refused join answers JoinRefused, so the
  // binder does not bind a member that would miss invocations. A class
  // this node lacks, or a state that does not restore, answers
  // NotActivated. An operation never answers these codes, so the client
  // of an activating invocation tells the activation's refusal from the
  // operation's own answer. Answers
  // this node's incarnation, which the client's bound calls then name
  // (sec 3.1).
  sim::Task<Result<std::uint64_t>> activate(Uid object, std::string class_name,
                                            std::vector<NodeId> st_nodes, bool join = false);

  // Warm-standby activation for coordinator-cohort: instantiate from a
  // provided snapshot instead of a store read.
  Status activate_from_snapshot(Uid object, const std::string& class_name, std::uint64_t version,
                                Buffer snapshot);

  bool is_active(const Uid& object) const { return active_.count(object) > 0; }
  ObjectStatus status(const Uid& object) const;

  // Recovery gate (sec 4.1.2): a recovered server node must complete its
  // Insert (the quiescence check) before it may serve an object again —
  // otherwise a client could activate it from the store mid-way through
  // another client's action and read a state missing in-flight effects.
  // The RecoveryDaemon blocks on recovery and unblocks after Insert.
  void block_activation(const Uid& object) { activation_blocked_.insert(object); }
  void unblock_activation(const Uid& object) { activation_blocked_.erase(object); }

  // Apply `op` under `mode` lock owned by `action`. `ancestors` is the
  // action's enclosing chain (outermost last) for Arjuna lock
  // inheritance: a nested action may acquire locks its ancestors hold.
  // `owner` is the client node coordinating `action` (kNoNode when
  // unknown); it is recorded so an action whose phase-2 never arrives
  // here can be resolved against the coordinator log instead of wedging
  // the object's lock forever. With `activation`, the object is first
  // activated as activate() does; each refusal of that step comes before
  // anything is applied: activate()'s, and NotSoleMember when the
  // object's replica group has members besides this server (a
  // point-to-point operation would bypass the group's order). Without
  // it, an object not active here is NotFound.
  sim::Task<Result<Buffer>> invoke(Uid object, Uid action, std::vector<Uid> ancestors,
                                   actions::LockMode mode, std::string op, Buffer args,
                                   NodeId owner = sim::kNoNode,
                                   std::optional<Activation> activation = std::nullopt);

  // Commit processing support: current state + whether `txn` modified it.
  // In the batched reply each object's answer carries its own `err` (an
  // Err, as a u32; Err::None where the other fields answer).
  struct StateForCommit {
    std::uint32_t err = 0;
    std::uint64_t version = 0;
    bool modified = false;
    Buffer snapshot;
    GV_WIRE_FIELDS(err, version, modified, snapshot)
  };
  Result<StateForCommit> state_for_commit(const Uid& object, const Uid& txn) const;

  // One server's staging reply to a committing action: an answer per
  // object asked, in order, and the server's vote. With `may_leave` (the
  // client wrote nothing), an action that left no before-image here ends
  // here and votes ReadOnly (R*'s read-only vote): it is marked
  // terminated, so a late invocation is refused, and its locks go now.
  // Otherwise the reply is a Yes vote (DESIGN.md secs 22, 25).
  struct Staging {
    std::vector<StateForCommit> answers;
    actions::Vote vote = actions::Vote::Yes;
    GV_WIRE_FIELDS(answers, vote)
  };
  Staging stage(const Uid& txn, const std::vector<Uid>& objects, bool may_leave);

  // Called (remotely) by the commit processor after a successful commit,
  // at each bound server that phase 2 does not move onto `new_version`:
  // a replica behind it is retired.
  void mark_committed(const Uid& object, std::uint64_t new_version);

  // Passivate a quiescent object (sec 2.3(3)): destroys the in-memory
  // instance. Refused while any action holds its lock or has undo data.
  Status passivate(const Uid& object);

  // Join the replica group for `object` (active replication). Requests
  // delivered through the group go to the endpoint's request path, so they
  // are served exactly like point-to-point ones. False if the group
  // refused the join.
  bool join_group(const Uid& object);

  // ---- ServerParticipant ------------------------------------------------
  // A server votes in its staging reply, so the coordinator asks none
  // (DESIGN.md sec 25). One asked anyway votes No: a server that staged
  // nothing cannot tell the action's work from a forgotten action's.
  sim::Task<actions::Vote> prepare(const Uid& txn, bool may_leave) override;
  sim::Task<Status> commit(const Uid& txn) override;
  sim::Task<Status> abort(const Uid& txn) override;
  void nested_commit(const Uid& child, const Uid& parent) override;
  void nested_abort(const Uid& child) override;

  actions::LockManager& locks() noexcept { return locks_; }
  Counters& counters() noexcept { return counters_; }
  NodeId node_id() const noexcept { return node_.id(); }

  // Number of actions with undo state here (diagnostics).
  std::size_t indexed_actions() const noexcept { return touched_.size(); }

 private:
  struct Active {
    std::string class_name;
    std::unique_ptr<ReplicatedObject> obj;
    std::uint64_t version = 0;  // committed version the state derives from
    std::map<Uid, Buffer> before;     // per-action before-images
    std::set<Uid> modified_by;        // actions that modified the object
  };

  // Lock waits must resolve BEFORE the caller's RPC deadline so the
  // client always learns LockRefused instead of timing out blind.
  static constexpr sim::SimTime kInvokeLockWait = 30 * sim::kMillisecond;

  sim::Task<Status> load(Uid object, std::string class_name, std::vector<NodeId> st_nodes);
  sim::Task<Result<Buffer>> apply_locked(Active& a, Uid object, Uid action,
                                         actions::LockMode mode, const std::string& op,
                                         Buffer args);
  void register_rpc();
  // True, and counted, when `action` already ended here: an invocation
  // of it is refused.
  bool ended(const Uid& action);
  // Remove `action` from the touched-object index, returning those of its
  // objects that are still active.
  using ActiveEntry = std::unordered_map<Uid, Active>::value_type;
  std::vector<ActiveEntry*> take_touched(const Uid& action);

  // ---- orphaned-action resolution ---------------------------------------
  // A server delisted from a commit (unreachable during the probe) or one
  // whose phase-2 RPC was lost never learns the action terminated: the
  // action's write lock wedges the object and the replica silently
  // diverges from the group. The sweep — triggered lazily whenever a lock
  // wait times out — asks each stale action's coordinator for the outcome,
  // applies it locally, and RETIRES the touched replicas (drops them from
  // active_) so the next activation reloads authoritative state from a
  // store (the paper's recover-by-state-transfer rule).
  static constexpr sim::SimTime kOrphanActionAge = 1 * sim::kSecond;
  void trigger_orphan_sweep();
  sim::Task<> resolve_orphan(Uid action, actions::OrphanResolver::Verdict verdict);

  sim::Node& node_;
  rpc::RpcEndpoint& endpoint_;
  rpc::GroupComm& gc_;
  ClassRegistry& classes_;
  actions::LockManager locks_;
  // Both tables are hashed and never iterated: each visit goes through a
  // UID, and an action's objects are visited in UID order (its set).
  std::unordered_map<Uid, Active> active_;  // volatile
  // action -> objects it left a before-image (and maybe modified_by) on,
  // so ending an action visits only what it touched. Entries may name
  // objects since passivated, retired or re-activated: visitors skip
  // those missing from active_, and a fresh instance holds no undo state.
  std::unordered_map<Uid, std::set<Uid>> touched_;  // volatile
  // Actions already committed/aborted here, or that left at a read-only
  // vote: an invocation whose lock is granted after its action terminated
  // (client gave up waiting, then aborted) must be refused, not applied
  // under a dead action.
  DenseUidTable<1> terminated_;  // volatile
  std::set<Uid> activation_blocked_;  // volatile; managed by RecoveryDaemon
  Counters counters_;
  actions::OrphanResolver orphans_;  // volatile; coordinator node per live action
};

// The objsrv service's methods, declared once for the registration and
// the client stubs below, which give each argument's meaning.
// (object, class, St nodes, join the replica group) -> the server's incarnation
inline constexpr rpc::Rpc<std::uint64_t(Uid, std::string, std::vector<NodeId>, bool)>
    kObjsrvActivate{kObjSrvService, "activate"};
// (object, action, ancestors, lock mode, operation, its arguments, the
// activation a first invocation carries) -> the operation's result
inline constexpr rpc::Rpc<Buffer(Uid, Uid, std::vector<Uid>, actions::LockMode, std::string,
                                 Buffer, std::optional<Activation>)>
    kObjsrvInvoke{kObjSrvService, "invoke"};
// (action, the objects it bound here, may leave) -> one answer per
// object, in order, and the server's vote
inline constexpr rpc::Rpc<ObjectServerHost::Staging(Uid, std::vector<Uid>, bool)>
    kObjsrvStateForCommit{kObjSrvService, "state_for_commit"};
inline constexpr rpc::Rpc<void(Uid, std::uint64_t)> kObjsrvMarkCommitted{kObjSrvService,
                                                                         "mark_committed"};
inline constexpr rpc::Rpc<void(Uid, std::string, std::uint64_t, Buffer)> kObjsrvCohortCheckpoint{
    kObjSrvService, "cohort_checkpoint"};

// --------------------------------------------------------- client stubs

// The probe's round trip is bounded by kActivateTimeout: activation
// doubles as the binder's failure detector, so a dead candidate must not
// stall the bind for a data-path deadline.
inline sim::Task<Result<std::uint64_t>> objsrv_activate(rpc::RpcEndpoint& ep, NodeId server,
                                                        Uid object, std::string class_name,
                                                        std::vector<NodeId> st_nodes, bool join) {
  return ep.call(server, kActivateTimeout, kObjsrvActivate, object, class_name, st_nodes, join);
}
inline sim::Task<Result<Buffer>> objsrv_invoke(rpc::RpcEndpoint& ep, NodeId server, Uid object,
                                               Uid action, std::vector<Uid> ancestors,
                                               actions::LockMode mode, std::string op,
                                               Buffer args) {
  return ep.call(server, kObjsrvInvoke, object, action, ancestors, mode, op, args,
                 std::optional<Activation>{});
}
// An object's first invocation at its one bound server: bound to the
// incarnation when `server` knows it, else unbound, its reply naming the
// incarnation. It activates the object first, so its deadline is the
// probe's plus the data path's.
inline sim::Task<Result<Buffer>> objsrv_invoke_activating(
    rpc::RpcEndpoint& ep, rpc::Binding& server, Uid object, Uid action,
    std::vector<Uid> ancestors, actions::LockMode mode, std::string op, Buffer args,
    Activation activation) {
  return ep.call_bound(server, kActivateTimeout + ep.config().call_timeout, kObjsrvInvoke, object,
                       action, ancestors, mode, op, args,
                       std::optional<Activation>{std::move(activation)});
}
// Bound to the server incarnation that activated the objects: a server
// that crashed since answers BindingBroken, never for reads it lost.
inline sim::Task<Result<ObjectServerHost::Staging>> objsrv_state_for_commit(
    rpc::RpcEndpoint& ep, rpc::Binding& server, Uid txn, const std::vector<Uid>& objects,
    bool may_leave) {
  return ep.call_bound(server, kObjsrvStateForCommit, txn, objects, may_leave);
}
inline sim::Task<Status> objsrv_mark_committed(rpc::RpcEndpoint& ep, NodeId server, Uid object,
                                               std::uint64_t new_version) {
  return ep.call(server, kObjsrvMarkCommitted, object, new_version);
}
inline sim::Task<Status> objsrv_cohort_checkpoint(rpc::RpcEndpoint& ep, NodeId server,
                                                  Uid object, std::string class_name,
                                                  std::uint64_t version, Buffer snapshot) {
  return ep.call(server, kObjsrvCohortCheckpoint, object, class_name, version, snapshot);
}

}  // namespace gv::replication
