#include "replication/activator.h"

#include <algorithm>

#include "core/trace.h"

namespace gv::replication {

const char* to_string(ReplicationPolicy p) noexcept {
  switch (p) {
    case ReplicationPolicy::SingleCopyPassive: return "single-copy-passive";
    case ReplicationPolicy::Active: return "active";
    case ReplicationPolicy::CoordinatorCohort: return "coordinator-cohort";
  }
  return "?";
}

sim::Task<naming::ProbeResult> Activator::probe(const ObjectSpec& spec, NodeId node,
                                                std::vector<NodeId> st, const Contacted& contacted,
                                                Probed& probed) {
  // One server is bound: the object's first invocation activates it
  // there, bound to the incarnation the action already depends on, or
  // else taking the incarnation from its reply (DESIGN.md sec 28). A
  // suspect server the action has not contacted is probed first.
  const bool one_server =
      spec.policy == ReplicationPolicy::SingleCopyPassive ||
      (spec.policy == ReplicationPolicy::Active && spec.servers_wanted == 1);
  auto known = contacted.find(node);
  if (one_server && (known != contacted.end() || suspects_.count(node) == 0)) {
    probed.incarnations[node] =
        known != contacted.end() ? known->second : rpc::Binding::kUnknownEpoch;
    probed.unprobed = node;
    counters_.inc("activate.probe_skipped");
    co_return naming::ProbeResult::Ok;
  }
  // A node that is down, cannot reach any St store, or lacks the class
  // binary fails the probe and is handled per the binder's scheme. An
  // active replica must also join the group in the same call: a bound
  // member that never joined silently misses every invocation, and its
  // unmodified state can mask a lost write at commit.
  const bool join = spec.policy == ReplicationPolicy::Active;
  auto s = co_await objsrv_activate(rt_.endpoint(), node, spec.uid, spec.class_name,
                                    std::move(st), join);
  if (s.ok()) {
    probed.incarnations[node] = s.value();
    suspects_.erase(node);
    co_return naming::ProbeResult::Ok;
  }
  switch (s.error()) {
    case Err::NotQuiescent:  // recovering: its Insert will re-admit it
    case Err::NoReplicas:    // alive, but no store reachable right now
    case Err::JoinRefused:   // alive, but refused into the replica group
      counters_.inc(s.error() == Err::JoinRefused ? "activate.join_failed"
                                               : "activate.busy_server_skipped");
      suspects_.erase(node);
      co_return naming::ProbeResult::Busy;
    default:
      co_return naming::ProbeResult::Dead;
  }
}

void Activator::record_probes(ActiveBinding& out, const Probed& probed) {
  out.incarnations.clear();
  for (NodeId server : out.bind.servers) out.incarnations.push_back(probed.incarnations.at(server));
  out.activate_on_invoke = out.bind.servers.front() == probed.unprobed;
}

// Sec 6 cached bind: serve Sv/St from the client's GroupViewCache — a
// warm hit touches the naming node ZERO times; correctness comes from the
// commit processor's batched epoch validation, which aborts the action if
// the cached view has been retired in the meantime.
sim::Task<Result<ActiveBinding>> Activator::bind_and_activate_cached(
    const ObjectSpec& spec, actions::AtomicAction& action, naming::Binder::Probe& prober,
    const Probed& probed, const naming::Rebind& rebind) {
  auto span = core::tracing(rt_.trace())
                  ? core::trace_span(rt_.trace(), "activate.cached", rt_.endpoint().node_id(),
                                     "activator", spec.uid.to_string())
                  : core::TraceRecorder::Span{};
  const std::size_t want =
      spec.policy == ReplicationPolicy::SingleCopyPassive ? 1 : spec.servers_wanted;
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto entry = co_await cache_->get_or_fetch(spec.uid);
    if (!entry.ok()) {
      counters_.inc("activate.cache_fetch_failed");
      span.end("fetch_failed");
      co_return entry.error();
    }

    // Probe candidates straight off the cached Sv, in database order (the
    // same fixed selection every scheme uses). No Remove/Increment: a
    // retired candidate costs a failed probe here and an epoch mismatch
    // at commit, not a naming write.
    std::vector<NodeId> candidates = entry.value().sv;
    std::erase_if(candidates, [&rebind](NodeId node) {
      return std::find(rebind.avoid.begin(), rebind.avoid.end(), node) != rebind.avoid.end();
    });
    naming::BindResult bound = co_await binder_.probe_servers(
        candidates, want, entry.value().st, prober, "activate.cached_probe_failure");
    if (bound.servers.empty()) {
      // Every cached candidate refused — the view is probably stale.
      // Drop it and refetch once before giving up.
      cache_->invalidate(spec.uid);
      counters_.inc("activate.cached_all_failed");
      continue;
    }

    for (NodeId s : bound.servers) action.enlist({s, kObjSrvService});

    ActiveBinding out;
    out.st = entry.value().st;
    out.cached = true;
    out.sv_epoch = entry.value().sv_epoch;
    out.st_epoch = entry.value().st_epoch;
    out.view_incarnation = entry.value().incarnation;
    out.spec = spec;
    out.bind = std::move(bound);
    out.primary = out.bind.servers.front();
    record_probes(out, probed);
    counters_.inc("activate.bound_cached");
    span.end("ok");
    co_return out;
  }
  counters_.inc("activate.bind_failed");
  span.end("no_replicas");
  co_return Err::NoReplicas;
}

sim::Task<Result<ActiveBinding>> Activator::bind_and_activate(ObjectSpec spec,
                                                              actions::AtomicAction& action,
                                                              const Contacted& contacted,
                                                              naming::Rebind rebind) {
  Probed probed;
  naming::Binder::Probe prober = [this, &spec, &contacted, &probed](NodeId node,
                                                                   std::vector<NodeId> st) {
    return probe(spec, node, std::move(st), contacted, probed);
  };
  if (cache_ != nullptr)
    co_return co_await bind_and_activate_cached(spec, action, prober, probed, rebind);
  auto span = core::tracing(rt_.trace())
                  ? core::trace_span(rt_.trace(), "activate", rt_.endpoint().node_id(),
                                     "activator", spec.uid.to_string())
                  : core::TraceRecorder::Span{};
  // St(A) is read under the client's action by the binder's naming call:
  // the read lock both pins the view for the action's lifetime and is the
  // lock the commit processor later promotes to EXCLUDE-WRITE if stores
  // fail.
  const std::size_t want =
      spec.policy == ReplicationPolicy::SingleCopyPassive ? 1 : spec.servers_wanted;
  auto bound = co_await binder_.bind(spec.uid, want, &action, prober, std::move(rebind));
  if (!bound.ok()) {
    counters_.inc("activate.bind_failed");
    co_return bound.error();
  }

  for (NodeId s : bound.value().servers) action.enlist({s, kObjSrvService});

  ActiveBinding out;
  out.spec = std::move(spec);
  out.bind = std::move(bound).value();
  out.st = out.bind.st;
  out.primary = out.bind.servers.front();
  record_probes(out, probed);
  counters_.inc("activate.bound");
  co_return out;
}

}  // namespace gv::replication
