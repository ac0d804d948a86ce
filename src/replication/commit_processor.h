// Commit processing and object passivation (sec 2.3(3), sec 4.2.1).
//
// When an application action that used replicated objects commits:
//
//  1. For each object the action modified, obtain the new state from one
//     of its bound servers (the read-only optimisation skips objects the
//     action did not modify — no copying necessary). Each bound server
//     gets one call per action, carrying every object bound there.
//  2. Copy the new state (version v+1) to the object stores of ALL nodes
//     in St(A) — as stable shadow writes keyed by the action. Each store
//     gets one prepare per action, carrying every object it holds.
//  3. Nodes for which the copy failed must be EXCLUDED from St(A): the
//     read lock the action holds on the St entry is promoted (to
//     EXCLUDE-WRITE under the paper's policy, to WRITE under the ablation
//     policy) and the batched Exclude is executed in the same action — so
//     either the new states AND the shrunken St commit together, or
//     neither does. If the promotion is refused, the action aborts.
//  4. If no store accepted the copy, the object would become unavailable
//     with no consistent St left: the action aborts.
//  5. Two-phase commit over all participants (stores, naming databases,
//     object server hosts) decides the outcome. In a writing action the
//     stores and bound servers voted Yes in their staging replies, so
//     phase 1 asks only the naming database. In a read-only action each
//     bound server votes ReadOnly in its staging reply and leaves, and a
//     cached bind's validate, sent last, ends the action at the naming
//     database too: the commit is two calls and no phase 2.
//  6. Post-commit: a bound server that phase 2 did not move onto the new
//     version (it answered staging behind, or not at all) is retired;
//     coordinator-cohort objects checkpoint the committed state to their
//     cohorts (warm standbys).
#pragma once

#include "actions/atomic_action.h"
#include "naming/group_view_db.h"
#include "replication/activator.h"

namespace gv::replication {

class CommitProcessor {
 public:
  CommitProcessor(actions::ActionRuntime& rt, NodeId naming_node)
      : rt_(rt), naming_node_(naming_node) {}

  // Run commit processing for `action` over the objects it bound, then
  // drive the top-level two-phase commit. On any failure the action is
  // aborted and Err::Aborted returned — except a failed cached-view
  // validation, which returns Err::StaleView (after aborting) so the
  // caller knows a plain retry will rebind freshly.
  sim::Task<Status> commit(actions::AtomicAction& action, std::vector<ActiveBinding*> bindings);

  // Cache used by validation bookkeeping (nullptr = no cached binds).
  void set_view_cache(naming::GroupViewCache* cache) noexcept { cache_ = cache; }

  Counters& counters() noexcept { return counters_; }

 private:
  // Validate every cached binding's view epochs in one batched
  // gvdb.validate RPC (per naming-node incarnation seen, normally one).
  // Sent `last`, after every other call of the action, the database may
  // leave when it is the sole participant left. On failure the action is
  // aborted and the reason returned.
  sim::Task<Status> validate_cached_views(actions::AtomicAction& action,
                                          const std::vector<ActiveBinding*>& bindings,
                                          bool last);
  // Stage every object: fetch the new states with one bound call per
  // bound server, prepare them at their stores with one call per store,
  // then judge each object's copies. Each server votes in its reply;
  // with `may_leave` one that holds no write of the action votes
  // ReadOnly and is delisted. Stores that
  // failed a copy are APPENDED to `excludes`, so the caller retires every
  // one across all objects with a single batched Exclude. A failure is
  // the caller's to abort on; Err::Conflict sets `behind` to the object
  // whose staged state a store already holds, or holds a newer one of.
  sim::Task<Status> stage(actions::AtomicAction& action,
                          const std::vector<ActiveBinding*>& bindings, bool may_leave,
                          std::vector<naming::ExcludeItem>& excludes, ActiveBinding*& behind);
  // Judge one object's answers, one per bound server in order (null: the
  // server failed it): take the freshest replica, delist each server that
  // failed, and set binding.staged_version (0: not modified),
  // staged_snapshot and servers_behind.
  Status judge_state(actions::AtomicAction& action, ActiveBinding& binding,
                     const std::vector<ObjectServerHost::StateForCommit*>& answers);

  actions::ActionRuntime& rt_;
  NodeId naming_node_;
  naming::GroupViewCache* cache_ = nullptr;
  Counters counters_;
};

}  // namespace gv::replication
