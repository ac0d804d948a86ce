// Client-side programming model: sessions and transactions.
//
// A ClientSession lives on one client node and owns the per-client
// machinery (action runtime, binder/activator with a scheme, commit
// processor). A Transaction is one top-level atomic action: objects are
// bound on first use, invocations route by the object's replication
// policy, and commit() runs the full commit processing of sec 2.3(3)
// followed by use-list release.
//
//   auto txn = session->begin();
//   auto r = co_await txn->invoke(acct, "withdraw", args, LockMode::Write);
//   if (!r.ok()) { co_await txn->abort(); ... }
//   co_await txn->commit();
#pragma once

#include <map>
#include <memory>

#include "actions/atomic_action.h"
#include "core/trace.h"
#include "naming/binder.h"
#include "replication/activator.h"
#include "replication/commit_processor.h"
#include "replication/object_server.h"

namespace gv::core {

class ReplicaSystem;
using actions::LockMode;
using replication::ActiveBinding;
using sim::NodeId;

class Transaction;

class ClientSession {
 public:
  ClientSession(ReplicaSystem& sys, NodeId node, naming::Scheme scheme);

  // Start a new top-level transaction.
  std::unique_ptr<Transaction> begin();

  // Warm the node's group-view cache for a batch of objects with a single
  // gvdb.get_views RPC (no-op when caching is disabled). A multi-object
  // transaction that prefetches binds every object without any further
  // naming traffic.
  sim::Task<Status> prefetch(std::vector<Uid> objects);

  NodeId node() const noexcept { return node_; }
  naming::Scheme scheme() const noexcept { return scheme_; }
  actions::ActionRuntime& runtime() noexcept { return runtime_; }
  replication::Activator& activator() noexcept { return activator_; }
  replication::CommitProcessor& commit_processor() noexcept { return commit_; }
  ReplicaSystem& system() noexcept { return sys_; }

  Counters& counters() noexcept { return counters_; }

 private:
  ReplicaSystem& sys_;
  NodeId node_;
  naming::Scheme scheme_;
  actions::ActionRuntime runtime_;
  replication::Activator activator_;
  replication::CommitProcessor commit_;
  naming::GroupViewCache* cache_ = nullptr;  // owned by the system; may be null
  Counters counters_;
};

class Transaction {
 public:
  explicit Transaction(ClientSession& session);

  // Invoke `op` on the object, binding + activating it on first use.
  // `mode` declares the operation class (Read ops may share locks and
  // enjoy the read-only commit optimisation; Write ops take write locks
  // and are checkpointed to the object stores at commit).
  sim::Task<Result<Buffer>> invoke(Uid object, std::string op, Buffer args, LockMode mode);

  // Commit: runs commit processing (state copy-back, Exclude of failed
  // stores) + two-phase commit + use-list release. Returns Err::Aborted
  // on any failure, after aborting cleanly.
  sim::Task<Status> commit();
  sim::Task<Status> abort();

  // Start a nested action inside this transaction; invocations made via
  // nested->invoke() can be selectively aborted without dooming the
  // parent. (Nested Transaction::commit() inherits into the parent.)
  std::unique_ptr<Transaction> nest();

  actions::AtomicAction& action() noexcept { return action_; }
  const std::map<Uid, ActiveBinding>& bindings() const noexcept { return bindings_; }
  bool finished() const noexcept { return action_.state() != actions::ActionState::Running; }

 private:
  Transaction(ClientSession& session, Transaction* parent);
  sim::Task<Result<ActiveBinding*>> bound(Uid object);
  // The servers this action and its ancestors hold bindings at, each
  // with the incarnation recorded for it.
  replication::Activator::Contacted contacted() const;
  sim::Task<> release_use_lists();

  ClientSession& session_;
  Transaction* parent_ = nullptr;
  actions::AtomicAction action_;
  std::map<Uid, ActiveBinding> bindings_;
  // Root span for the whole action (a child of the parent's for nested
  // transactions); invoke/commit open their spans under trace_ctx_ so the
  // tree stays connected even when calls arrive from different coroutines.
  TraceRecorder::Span span_;
  TraceContext trace_ctx_{};
  sim::SimTime begin_at_ = 0;
};

}  // namespace gv::core
