// Binding + activation of replicated objects (secs 3.2, 4).
//
// Implements the four replica-management regimes of sec 3.2 uniformly:
// the cardinalities of Sv(A) and St(A), together with the replication
// policy, select the behaviour:
//
//   |Sv|=1, |St|=1  non-replicated object            (fig 2)
//   |Sv|=1, |St|>1  single copy passive replication  (fig 3)
//   |Sv|>1, |St|=1  replicated servers, single state (fig 4)
//   |Sv|>1, |St|>1  the general case                 (fig 5)
//
// Activation: drive the Binder, whose one naming read returns St(A)
// read-locked under the client's action together with Sv(A) under the
// configured scheme, with a probe that asks candidate server nodes to
// activate the object — each freshly created server loads the state from
// any functioning node in St — and, for active replication, to join the
// object's replica group in the same call.
//
// Policies:
//   SingleCopyPassive  one server; state copied to all St stores at commit
//   Active             k servers; invocations multicast (reliable+ordered)
//   CoordinatorCohort  k servers; only the coordinator executes, cohorts
//                      receive checkpoints at commit and stand by warm
#pragma once

#include <map>

#include "actions/atomic_action.h"
#include "naming/binder.h"
#include "naming/view_cache.h"
#include "replication/object_server.h"

namespace gv::replication {

enum class ReplicationPolicy { SingleCopyPassive, Active, CoordinatorCohort };

const char* to_string(ReplicationPolicy p) noexcept;

// Static description of a persistent object (what the system knows at
// creation time; the authoritative Sv/St live in the group view db).
struct ObjectSpec {
  Uid uid;
  std::string class_name;
  ReplicationPolicy policy = ReplicationPolicy::SingleCopyPassive;
  std::size_t servers_wanted = 1;  // |Sv'| — how many replicas to activate
};

// The per-action result of binding+activating one object.
struct ActiveBinding {
  ObjectSpec spec;
  naming::BindResult bind;      // bound servers (Sv')
  // Per bound server, in bind.servers order: the incarnation that
  // activated the object. Staging is a call bound to it (sec 3.1).
  std::vector<std::uint64_t> incarnations;
  std::vector<NodeId> st;       // St(A) as read under the action
  NodeId primary = sim::kNoNode;  // invocation target (passive / CC)

  // Cached-bind bookkeeping (sec 6): the bind came from the client's
  // GroupViewCache with NO naming interaction; the epochs below are what
  // the commit processor's batched gvdb.validate checks, and unbind is a
  // no-op (cached binds never touch use lists).
  bool cached = false;
  std::uint64_t sv_epoch = 0;
  std::uint64_t st_epoch = 0;
  std::uint64_t view_incarnation = 0;

  // Filled by the commit processor while staging: the version installed
  // by this action (0 = object not modified) and its snapshot (used for
  // cohort checkpoints after commit).
  std::uint64_t staged_version = 0;
  Buffer staged_snapshot;
  // The bound servers whose state phase 2 does not move onto
  // staged_version; mark_committed retires them after the commit.
  std::vector<NodeId> servers_behind;

  // Set by Transaction::invoke on the first successful write-mode call:
  // the client KNOWS this action modified the object, so a commit-time
  // probe that finds only unmodified replicas means the modified ones are
  // unreachable — the action must abort, not take the read-only skip.
  bool wrote = false;
};

class Activator {
 public:
  Activator(actions::ActionRuntime& rt, NodeId naming_node, naming::Scheme scheme)
      : rt_(rt), binder_(rt, naming_node, scheme) {}

  // Bind to (activating if necessary) the object described by `spec`,
  // within `action`. Enlists the group view database and the bound
  // servers' hosts as participants of `action`.
  sim::Task<Result<ActiveBinding>> bind_and_activate(ObjectSpec spec,
                                                     actions::AtomicAction& action);

  // Enable the cached bind path (nullptr = classic schemes only).
  void set_view_cache(naming::GroupViewCache* cache) noexcept { cache_ = cache; }

  naming::Binder& binder() noexcept { return binder_; }
  Counters& counters() noexcept { return counters_; }

 private:
  sim::Task<Result<ActiveBinding>> bind_and_activate_cached(ObjectSpec spec,
                                                            actions::AtomicAction& action);
  // One bind's successful probes: each server's incarnation.
  using Activated = std::map<NodeId, std::uint64_t>;
  // Ask `node` to activate the object from the stores in `st`, joining
  // its replica group if the object is actively replicated; a success
  // is appended to `activated`.
  sim::Task<naming::ProbeResult> probe(const ObjectSpec& spec, NodeId node,
                                       std::vector<NodeId> st, Activated& activated);
  // Fill `out.incarnations` from its bound servers' activations.
  static void record_incarnations(ActiveBinding& out, const Activated& activated);

  actions::ActionRuntime& rt_;
  naming::Binder binder_;
  naming::GroupViewCache* cache_ = nullptr;
  Counters counters_;
};

}  // namespace gv::replication
