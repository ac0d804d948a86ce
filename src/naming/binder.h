// Client-side binding: the three schemes for consulting the Object
// Server database (sec 4.1.2 / 4.1.3, figs 6-8).
//
//   StandardNested (S1, fig 6)
//     GetServer runs as a nested atomic action of the client action. The
//     read lock on the Sv entry is inherited by the client action and
//     held until it terminates, so concurrent clients share the entry
//     but nobody can update it: Sv is static, and every client discovers
//     crashed servers "the hard way" by probing them at bind time.
//
//   IndependentTopLevel (S2, fig 7)
//     Binding runs in its own top-level action, BEFORE the client action:
//     GetServer (now also returning use lists), probe, Remove failed
//     servers, Increment use counters, commit. The action's only
//     participant is the naming database, so its Increment call also
//     commits it there: a bind costs GetServer + Increment. After the
//     client action terminates one Decrement call, which needs no client
//     action, drops the binding. Sv stays current at the cost of write
//     locks on the DB entry.
//
//   NestedTopLevel (S3, fig 8)
//     Same operations, but the binding action is a nested top-level
//     action invoked from INSIDE the running client action (and the
//     Decrement likewise). Functionally equivalent to S2; the difference
//     is structural (fewer separate action envelopes, binding latency
//     overlapped with the client action) and is visible in the metrics.
//
// The binder performs naming-database work and server probing only;
// actually activating object replicas is the Activator's job
// (replication/activator.h), injected here as the Probe callback.
#pragma once

#include <functional>
#include <vector>

#include "actions/atomic_action.h"
#include "naming/object_server_db.h"

namespace gv::naming {

enum class Scheme { StandardNested, IndependentTopLevel, NestedTopLevel };

const char* to_string(Scheme s) noexcept;

// Probe outcome: Dead servers are Removed from Sv by the enhanced
// schemes; Busy ones (alive but recovering / temporarily unable to
// activate) are merely skipped — removing a live node would fight its
// own Insert re-admission.
enum class ProbeResult { Ok, Dead, Busy };

struct BindResult {
  std::vector<NodeId> servers;  // Sv(A)': the bound subset
  std::vector<NodeId> failed;   // probe failures discovered at bind time
  Scheme scheme = Scheme::StandardNested;
  // S2/S3: the binding's name on the use lists — the UID of the binder
  // action that recorded it; Decrement drops exactly this binding.
  Uid token;
};

class Binder {
 public:
  // Probe: attempt to reach/activate a server on `node`; the Activator
  // supplies the real implementation, tests can script it.
  using Probe = std::function<sim::Task<ProbeResult>(NodeId node)>;

  Binder(actions::ActionRuntime& rt, NodeId naming_node, Scheme scheme)
      : rt_(rt), naming_node_(naming_node), scheme_(scheme) {}

  // Bind to up to `want` servers for `object`.
  //  - S1 requires the enclosing client action (the nested GetServer
  //    action becomes its child).
  //  - S2/S3 run their own top-level action; `client_action` is only
  //    used to assert structure (S2 callers pass nullptr: binding happens
  //    before the client action starts).
  sim::Task<Result<BindResult>> bind(Uid object, std::size_t want,
                                     actions::AtomicAction* client_action, Probe probe);

  // Release the binding bookkeeping after the client action ended
  // (S2/S3: one Decrement call, idempotent by the binding's token, so a
  // caller may resend it; S1: no-op).
  sim::Task<Status> unbind(Uid object, const BindResult& binding);

  // Times the binder sends its Increment while every reply is lost.
  static constexpr int kIncrementAttempts = 3;

  Scheme scheme() const noexcept { return scheme_; }
  Counters& counters() noexcept { return counters_; }

 private:
  sim::Task<Result<BindResult>> bind_standard(Uid object, std::size_t want,
                                              actions::AtomicAction& client_action, Probe& probe);
  sim::Task<Result<BindResult>> bind_enhanced(Uid object, std::size_t want, Probe& probe);

  actions::ActionRuntime& rt_;
  NodeId naming_node_;
  Scheme scheme_;
  Counters counters_;
};

}  // namespace gv::naming
