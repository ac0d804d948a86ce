#include "naming/hybrid.h"

#include <algorithm>

namespace gv::naming {

PlainNameServer::PlainNameServer(sim::Node& node, rpc::RpcEndpoint& endpoint) {
  register_rpc(endpoint);
  node.on_crash([this] { entries_.clear(); });  // purely volatile
}

Result<std::vector<NodeId>> PlainNameServer::get(const Uid& object) const {
  auto it = entries_.find(object);
  if (it == entries_.end()) return Err::NotFound;
  return it->second;
}

void PlainNameServer::add(const Uid& object, NodeId host) {
  auto& sv = entries_[object];
  if (std::find(sv.begin(), sv.end(), host) == sv.end()) sv.push_back(host);
}

void PlainNameServer::remove(const Uid& object, NodeId host) {
  auto it = entries_.find(object);
  if (it == entries_.end()) return;
  auto& sv = it->second;
  sv.erase(std::remove(sv.begin(), sv.end(), host), sv.end());
}

void PlainNameServer::register_rpc(rpc::RpcEndpoint& endpoint) {
  endpoint.serve(kPnsGet, [this](NodeId, Uid object) {
    counters_.inc("pns.get");
    return get(object);
  });
  endpoint.serve(kPnsRemove, [this](NodeId, Uid object, NodeId host) -> Status {
    counters_.inc("pns.remove");
    remove(object, host);
    return ok_status();
  });
}

sim::Task<Result<BindResult>> HybridBinder::bind(Uid object, std::size_t want, Probe probe) {
  counters_.inc("hybrid.bind");
  auto sv = co_await pns_get(rt_.endpoint(), naming_node_, object);
  if (!sv.ok()) {
    counters_.inc("hybrid.lookup_failed");
    co_return sv.error();
  }
  BindResult out;
  out.scheme = Scheme::IndependentTopLevel;  // closest structural relative
  for (NodeId node : sv.value()) {
    if (out.servers.size() >= want) break;
    switch (co_await probe(node)) {
      case ProbeResult::Ok:
        out.servers.push_back(node);
        break;
      case ProbeResult::Dead:
        out.failed.push_back(node);
        counters_.inc("hybrid.probe_failure");
        // Best-effort repair: non-atomic remove. A racing reader may
        // still see the dead entry; the scheme's accepted weakness.
        (void)co_await pns_remove(rt_.endpoint(), naming_node_, object, node);
        break;
      case ProbeResult::Busy:
        counters_.inc("hybrid.busy_server_skipped");
        break;
    }
  }
  if (out.servers.empty()) {
    counters_.inc("hybrid.no_replicas");
    co_return Err::NoReplicas;
  }
  co_return out;
}

}  // namespace gv::naming
