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
// Activation: drive the Binder, whose one naming call returns St(A)
// read-locked under the client's action together with the servers the
// configured scheme offers, with a probe that asks candidate server
// nodes to activate the object — each freshly created server loads the
// state from any functioning node in St — and, for active replication,
// to join the object's replica group in the same call.
//
// When one server is bound (|Sv'| = 1) outside coordinator-cohort, no
// probe runs: the binding is marked activate_on_invoke, and the object's
// first invocation activates it. That invocation is bound to the
// incarnation the action (or an ancestor) recorded at the server, or
// takes the incarnation from its reply when the action has not
// contacted the server yet. A server whose activating invocation got no
// answer, or could not activate, is suspect: the next bind that picks it
// probes it first (DESIGN.md sec 28).
//
// Policies:
//   SingleCopyPassive  one server; state copied to all St stores at commit
//   Active             k servers; invocations multicast (reliable+ordered)
//   CoordinatorCohort  k servers; only the coordinator executes, cohorts
//                      receive checkpoints at commit and stand by warm
#pragma once

#include <map>
#include <set>

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
  // activated the object (rpc::Binding::kUnknownEpoch until an unprobed
  // server's first reply names it). Staging is a call bound to it (sec
  // 3.1).
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

  // No probe activated the object: its first invocation goes point to
  // point to the bound server and activates it there, bound to the
  // incarnation when it is known. Cleared once an invocation has done so.
  bool activate_on_invoke = false;

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

  // The servers an action (with its ancestors) already holds work at,
  // each with the incarnation it recorded.
  using Contacted = std::map<NodeId, std::uint64_t>;

  // Bind to (activating if necessary) the object described by `spec`,
  // within `action`, skipping `rebind.avoid` and releasing the binding
  // `rebind.release` names. When one server is bound outside
  // coordinator-cohort, a server is probed only when it is suspect and
  // not in `contacted`. Enlists the group view database and the bound
  // servers' hosts as participants of `action`.
  sim::Task<Result<ActiveBinding>> bind_and_activate(ObjectSpec spec,
                                                     actions::AtomicAction& action,
                                                     const Contacted& contacted = {},
                                                     naming::Rebind rebind = {});

  // Enable the cached bind path (nullptr = classic schemes only).
  void set_view_cache(naming::GroupViewCache* cache) noexcept { cache_ = cache; }

  // Mark `node` suspect (an activating invocation there got no answer, or
  // could not activate), or clear it (the server answered).
  void set_suspect(NodeId node, bool suspect) {
    if (suspect)
      suspects_.insert(node);
    else
      suspects_.erase(node);
  }

  naming::Binder& binder() noexcept { return binder_; }
  Counters& counters() noexcept { return counters_; }

 private:
  // One bind's probes: each server that answered Ok with its
  // incarnation, and the server taken unprobed, if any.
  struct Probed {
    std::map<NodeId, std::uint64_t> incarnations;
    NodeId unprobed = sim::kNoNode;
  };
  sim::Task<Result<ActiveBinding>> bind_and_activate_cached(const ObjectSpec& spec,
                                                            actions::AtomicAction& action,
                                                            naming::Binder::Probe& prober,
                                                            const Probed& probed,
                                                            const naming::Rebind& rebind);
  // Ask `node` to activate the object from the stores in `st`, joining
  // its replica group if the object is actively replicated, and record
  // the answer in `probed`; or take the node unprobed when `spec` binds
  // one server and the node is in `contacted` or not suspect.
  sim::Task<naming::ProbeResult> probe(const ObjectSpec& spec, NodeId node,
                                       std::vector<NodeId> st, const Contacted& contacted,
                                       Probed& probed);
  // Fill `out.incarnations` and `out.activate_on_invoke` from its bound
  // servers' probes.
  static void record_probes(ActiveBinding& out, const Probed& probed);

  actions::ActionRuntime& rt_;
  naming::Binder binder_;
  naming::GroupViewCache* cache_ = nullptr;
  std::set<NodeId> suspects_;  // the session's suspect servers
  Counters counters_;
};

}  // namespace gv::replication
