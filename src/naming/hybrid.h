// The concluding-remarks extension (sec 5): reducing dependence on
// atomic-action support in the naming service.
//
// "One way would be to keep available server related data in a
// 'traditional (non-atomic)' name server, and retain the services of a
// modified object state server database with atomic action support. It
// would then become the responsibility of the Object State database to
// guarantee consistent binding of clients to servers."
//
// PlainNameServer is that traditional server: a UID -> Sv map with
// immediate, unlocked, non-transactional updates (think DNS-ish). It can
// be stale and its updates are not atomic with anything. The
// HybridBinder consults it instead of the Object Server database; all
// CONSISTENCY-bearing metadata (St, Exclude/Include) still flows through
// the transactional ObjectStateDb, so clients can never commit against a
// stale state — only *availability* can suffer from Sv staleness (extra
// failed probes, exactly like scheme S1's "hard way").
#pragma once

#include <map>
#include <vector>

#include "actions/atomic_action.h"
#include "naming/binder.h"
#include "rpc/rpc.h"

namespace gv::naming {

inline constexpr const char* kPnsService = "pns";

class PlainNameServer {
 public:
  PlainNameServer(sim::Node& node, rpc::RpcEndpoint& endpoint);

  // Local API (RPC methods mirror these). No locks, no actions: every
  // update is applied and visible immediately, crash loses everything
  // newer than the last snapshot (we keep it purely volatile to model
  // the weakest credible name server).
  void set(const Uid& object, std::vector<NodeId> sv) { entries_[object] = std::move(sv); }
  Result<std::vector<NodeId>> get(const Uid& object) const;
  void add(const Uid& object, NodeId host);
  void remove(const Uid& object, NodeId host);

  Counters& counters() noexcept { return counters_; }

 private:
  void register_rpc(rpc::RpcEndpoint& endpoint);

  std::map<Uid, std::vector<NodeId>> entries_;  // volatile
  Counters counters_;
};

// The pns service's methods, declared once for the registration and the
// client stubs below.
inline constexpr rpc::Rpc<std::vector<NodeId>(Uid)> kPnsGet{kPnsService, "get"};
inline constexpr rpc::Rpc<void(Uid, NodeId)> kPnsRemove{kPnsService, "remove"};

// Client stubs.
inline sim::Task<Result<std::vector<NodeId>>> pns_get(rpc::RpcEndpoint& ep, NodeId naming_node,
                                                      Uid object) {
  return ep.call(naming_node, kPnsGet, object);
}
inline sim::Task<Status> pns_remove(rpc::RpcEndpoint& ep, NodeId naming_node, Uid object,
                                    NodeId host) {
  return ep.call(naming_node, kPnsRemove, object, host);
}

// Binder over the plain name server: lookup without any lock, probe,
// best-effort remove of failed servers (non-atomic!). No use lists —
// the scheme trades S2's currency guarantees for zero atomic-action
// traffic on the Sv side.
class HybridBinder {
 public:
  HybridBinder(actions::ActionRuntime& rt, NodeId naming_node)
      : rt_(rt), naming_node_(naming_node) {}

  using Probe = std::function<sim::Task<ProbeResult>(NodeId node)>;

  sim::Task<Result<BindResult>> bind(Uid object, std::size_t want, Probe probe);

  Counters& counters() noexcept { return counters_; }

 private:
  actions::ActionRuntime& rt_;
  NodeId naming_node_;
  Counters counters_;
};

}  // namespace gv::naming
