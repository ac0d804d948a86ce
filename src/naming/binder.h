// Client-side binding: the three schemes for consulting the Object
// Server database (sec 4.1.2 / 4.1.3, figs 6-8).
//
//   StandardNested (S1, fig 6)
//     GetServer runs under the client action (the paper nests it; the
//     lock it inherits is the same). The read lock on the Sv entry is
//     held until the client action terminates, so concurrent clients
//     share the entry but nobody can update it: Sv is static, and every
//     client discovers crashed servers "the hard way" by probing them at
//     bind time.
//
//   IndependentTopLevel (S2, fig 7)
//     Binding runs in its own top-level action, named by a fresh token,
//     and that action is one call to the naming node (osdb.bind,
//     DESIGN.md sec 26): GetServer, Remove of the servers a previous
//     attempt found dead, the pick of servers, their Increment and the
//     commit all happen there, so Sv's lock is held for no round trip.
//     The binder then probes the servers it was given; one that fails
//     sends one more osdb.bind, which Removes it (Dead) or avoids it
//     (Busy) and releases the failed binding in the same call. After the
//     client action terminates one Decrement call, which needs no client
//     action, drops every binding the client action made. Sv stays
//     current at the cost of write locks on the DB entry.
//
//   NestedTopLevel (S3, fig 8)
//     Same operations, but the binding action is a nested top-level
//     action invoked from INSIDE the running client action (and the
//     Decrement likewise). Functionally equivalent to S2; the difference
//     is structural, and with the binder action inside one call the two
//     send the same messages.
//
// Every scheme reads St(A) under the client action, whose commit
// processing relies on it, in the same call that reads Sv. A bind is
// one naming call. The probe that activates a server and joins it to the
// replica group runs only where more than one server is bound, or for
// coordinator-cohort, or at a suspect server; otherwise the Activator
// answers it at once and the object's first invocation activates it.
//
// The binder performs naming-database work and server probing only;
// actually activating object replicas is the Activator's job
// (replication/activator.h), injected here as the Probe callback.
#pragma once

#include <functional>
#include <vector>

#include "actions/atomic_action.h"
#include "naming/group_view_db.h"

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
  std::vector<NodeId> st;       // St(A), read-locked under the client action
  Scheme scheme = Scheme::StandardNested;
  // S2/S3: the binding's name on the use lists — the UID of the binder
  // action that recorded it; Decrement drops exactly this binding.
  Uid token;
};

// What a bind must not reuse: servers to skip, and (S2/S3) the binding
// it replaces, released in the same naming call.
struct Rebind {
  std::vector<NodeId> avoid;
  Uid release;
};

class Binder {
 public:
  // Probe: attempt to reach/activate a server on `node`, which loads the
  // object's state from the stores in `st`; the Activator supplies the
  // real implementation, tests can script it.
  using Probe = std::function<sim::Task<ProbeResult>(NodeId node, std::vector<NodeId> st)>;

  Binder(actions::ActionRuntime& rt, NodeId naming_node, Scheme scheme)
      : rt_(rt), naming_node_(naming_node), scheme_(scheme) {}

  // Bind to up to `want` servers for `object`, none of `rebind.avoid`.
  // Every scheme needs the client action (null: BadRequest): St(A) is
  // read-locked under it, and S1 holds its Sv read lock under it too.
  sim::Task<Result<BindResult>> bind(Uid object, std::size_t want,
                                     actions::AtomicAction* client_action, Probe probe,
                                     Rebind rebind = {});

  // Release the bindings' bookkeeping after the client action ended
  // (S2/S3: one Decrement call for all of them, idempotent by the
  // bindings' tokens, so a caller may resend it; S1: no-op).
  sim::Task<Status> unbind(std::vector<UseRelease> bindings);

  // Times the binder sends one osdb.bind while every reply is lost.
  static constexpr int kBindAttempts = 3;

  // Probe `candidates` in order until `want` answer Ok; each Dead one is
  // counted under `dead_counter`, each Busy one under
  // bind.busy_server_skipped. S1 and the cached bind probe through this.
  sim::Task<BindResult> probe_servers(const std::vector<NodeId>& candidates, std::size_t want,
                                      const std::vector<NodeId>& st, Probe& probe,
                                      const char* dead_counter);

  Scheme scheme() const noexcept { return scheme_; }
  Counters& counters() noexcept { return counters_; }

 private:
  sim::Task<Result<BindResult>> bind_standard(Uid object, std::size_t want,
                                              actions::AtomicAction& client_action, Probe& probe,
                                              const Rebind& rebind);
  sim::Task<Result<BindResult>> bind_enhanced(Uid object, std::size_t want,
                                              actions::AtomicAction& client_action, Probe& probe,
                                              Rebind rebind);
  // Drop `object`'s bindings named by `tokens` wherever they are: a bind
  // that gives up leaves none behind.
  sim::Task<> drop_bindings(Uid object, std::vector<Uid> tokens);
  // One osdb.bind, resent under the same token while no reply comes.
  sim::Task<Result<BindReply>> bind_call(Uid object, std::size_t want, const Uid& client_action,
                                         const Uid& token, const std::vector<NodeId>& avoid,
                                         const std::vector<NodeId>& remove, const Uid& release);

  actions::ActionRuntime& rt_;
  NodeId naming_node_;
  Scheme scheme_;
  Counters counters_;
};

}  // namespace gv::naming
