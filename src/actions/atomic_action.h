// Atomic actions (atomic transactions), sec 2.2.
//
// Client-coordinated nested actions in the Arjuna style:
//
//  * An action tree is rooted at a top-level action. Nested actions
//    enlist the same kinds of participants; on nested commit their
//    effects (locks, undo records, pending updates) are inherited by the
//    parent; on nested abort they are undone immediately. Only top-level
//    commit makes effects durable and visible, via two-phase commit over
//    all enlisted participants.
//
//  * Participants are remote services addressed as (node, service-name):
//    object servers, object stores and the naming databases all register
//    a ServerParticipant in their node's TxnRegistry, reachable through
//    the generic "txn" RPC service.
//
//  * Nested TOP-LEVEL actions (sec 4.1.3(ii)) are ordinary top-level
//    actions started while another action is running: they commit or
//    abort independently of the enclosing action. The API models them
//    simply as constructing a new root AtomicAction — the type system
//    does not tie an action to the lexical scope it was started in.
//
// Failure model: the coordinator is the client process. If it crashes
// mid-protocol, participants that prepared but never heard the outcome
// ask its node's stable coordinator log (stores keep such shadows in
// doubt until it answers; lock owners are resolved by orphan sweeps).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rpc/rpc.h"
#include "sim/task.h"
#include "util/result.h"
#include "util/stats.h"
#include "util/uid.h"

namespace gv::core {
class TraceRecorder;
class MetricsRegistry;
}  // namespace gv::core

namespace gv::actions {

using sim::NodeId;

enum class ActionState { Running, Committed, Aborted };

// Address of a remote participant: the TxnRegistry on `node` dispatches
// to the ServerParticipant registered under `name`.
struct ParticipantRef {
  NodeId node;
  std::string name;

  friend bool operator==(const ParticipantRef& a, const ParticipantRef& b) noexcept {
    return a.node == b.node && a.name == b.name;
  }
};

class CoordinatorLog;

// Per-client runtime shared by all actions of one client process.
// `log` (optional, one per node) records every top-level decision so
// in-doubt 2PC participants can resolve after a crash. `trace` and
// `metrics` (optional, owned by the System) receive 2PC phase spans and
// latency histograms.
class ActionRuntime {
 public:
  ActionRuntime(rpc::RpcEndpoint& endpoint, std::uint64_t uid_seed,
                CoordinatorLog* log = nullptr, core::TraceRecorder* trace = nullptr,
                core::MetricsRegistry* metrics = nullptr);

  Uid new_uid() { return uids_.next(); }
  rpc::RpcEndpoint& endpoint() noexcept { return endpoint_; }
  CoordinatorLog* coordinator_log() noexcept { return log_; }
  Counters& counters() noexcept { return counters_; }
  core::TraceRecorder* trace() noexcept { return trace_; }
  core::MetricsRegistry* metrics() noexcept { return metrics_; }
  void set_obs(core::TraceRecorder* trace, core::MetricsRegistry* metrics) noexcept {
    trace_ = trace;
    metrics_ = metrics;
  }

 private:
  rpc::RpcEndpoint& endpoint_;
  CoordinatorLog* log_;
  UidGenerator uids_;
  Counters counters_;
  core::TraceRecorder* trace_ = nullptr;
  core::MetricsRegistry* metrics_ = nullptr;
};

class AtomicAction {
 public:
  // Top-level action (parent == nullptr) or nested action.
  explicit AtomicAction(ActionRuntime& rt, AtomicAction* parent = nullptr);
  ~AtomicAction();

  AtomicAction(const AtomicAction&) = delete;
  AtomicAction& operator=(const AtomicAction&) = delete;

  const Uid& uid() const noexcept { return uid_; }
  bool is_top_level() const noexcept { return parent_ == nullptr; }
  AtomicAction* parent() const noexcept { return parent_; }
  const Uid& top_level_uid() const noexcept;
  ActionState state() const noexcept { return state_; }
  ActionRuntime& runtime() noexcept { return rt_; }

  // Enlist a remote participant (deduplicated).
  void enlist(ParticipantRef ref);

  // Record that an enlisted participant already voted Yes, in the reply
  // carrying its last work for this action: the implicit yes vote
  // (DESIGN.md sec 22). Phase 1 does not ask it; phase 2 or the abort
  // still reaches it. A participant not enlisted (or delisted) is ignored.
  void voted_yes(const ParticipantRef& ref);

  // Record that an enlisted participant voted ReadOnly in the reply
  // carrying its last work for this action: it ended the action there
  // and left, so it is delisted, and neither phase 2 nor an abort
  // reaches it (DESIGN.md sec 25).
  void voted_read_only(const ParticipantRef& ref);

  // True if `ref` is enlisted and every other participant has left.
  bool sole_participant(const ParticipantRef& ref) const;

  // Remove a participant (e.g. a crashed object server whose state is
  // volatile: it holds nothing durable this action needs to decide, and
  // including it in the 2PC would needlessly abort a maskable failure).
  void delist(const ParticipantRef& ref);

  // Commit this action.
  //  - nested: inherits everything into the parent (never fails: the
  //    durable outcome is decided at the top level).
  //  - top-level: two-phase commit across all participants. Returns
  //    Err::Aborted if any participant voted no or was unreachable.
  //    Participants not yet voted are prepared in reverse enlist order,
  //    and may vote read-only only while none has voted yes; phase 2 (or
  //    the abort) reaches the yes voters alone (DESIGN.md secs 17, 22).
  sim::Task<Status> commit();

  // Abort this action (and conceptually its whole subtree).
  sim::Task<Status> abort();

 private:
  sim::Task<Status> commit_top_level();
  sim::Task<Status> commit_nested();

  ActionRuntime& rt_;
  AtomicAction* parent_;
  Uid uid_;
  ActionState state_ = ActionState::Running;
  std::vector<ParticipantRef> participants_;
  std::vector<ParticipantRef> voted_;  // the implicit yes voters among them
};

// --------------------------------------------------------------------
// Server side.

// A participant's phase-1 answer. ReadOnly is R*'s read-only vote: the
// participant had nothing to install or undo for the action, so it has
// released the action's locks and forgotten it, and phase 2 skips it.
enum class Vote : std::uint8_t { No = 0, Yes = 1, ReadOnly = 2 };

// Interface a transactional service implements so its node's TxnRegistry
// can drive it through 2PC and nested-action inheritance.
class ServerParticipant {
 public:
  virtual ~ServerParticipant() = default;
  // Vote on `txn`. ReadOnly is allowed only when `may_leave` is set: the
  // coordinator clears it once any participant has voted Yes, so read
  // locks that pin what a writer installs stay held until phase 2.
  virtual sim::Task<Vote> prepare(const Uid& txn, bool may_leave) = 0;
  virtual sim::Task<Status> commit(const Uid& txn) = 0;
  virtual sim::Task<Status> abort(const Uid& txn) = 0;
  virtual void nested_commit(const Uid& child, const Uid& parent) = 0;
  virtual void nested_abort(const Uid& child) = 0;
};

// The "txn" service's methods, declared once for the coordinator above
// and the TxnRegistry below. Each names the participant, then the action
// (nested_commit: the child, then its parent); prepare then says whether
// the participant may vote ReadOnly.
inline constexpr rpc::Rpc<Vote(std::string, Uid, bool)> kTxnPrepare{"txn", "prepare"};
inline constexpr rpc::Rpc<void(std::string, Uid)> kTxnCommit{"txn", "commit"};
inline constexpr rpc::Rpc<void(std::string, Uid)> kTxnAbort{"txn", "abort"};
inline constexpr rpc::Rpc<void(std::string, Uid, Uid)> kTxnNestedCommit{"txn", "nested_commit"};
inline constexpr rpc::Rpc<void(std::string, Uid)> kTxnNestedAbort{"txn", "nested_abort"};

// Per-node dispatcher for the "txn" RPC service.
class TxnRegistry {
 public:
  explicit TxnRegistry(rpc::RpcEndpoint& endpoint);

  void add(const std::string& name, ServerParticipant* participant);
  void remove(const std::string& name);

 private:
  ServerParticipant* find(const std::string& name) const;

  rpc::RpcEndpoint& endpoint_;
  std::unordered_map<std::string, ServerParticipant*> participants_;
};

}  // namespace gv::actions
