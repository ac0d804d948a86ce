#include "naming/binder.h"

#include <algorithm>

#include "core/metrics.h"
#include "core/trace.h"

namespace gv::naming {

const char* to_string(Scheme s) noexcept {
  switch (s) {
    case Scheme::StandardNested: return "standard-nested";
    case Scheme::IndependentTopLevel: return "independent-top-level";
    case Scheme::NestedTopLevel: return "nested-top-level";
  }
  return "?";
}

sim::Task<Result<BindResult>> Binder::bind(Uid object, std::size_t want,
                                           actions::AtomicAction* client_action, Probe probe,
                                           Rebind rebind) {
  counters_.inc("bind.attempts");
  auto span = core::tracing(rt_.trace())
                  ? core::trace_span(rt_.trace(), "bind", rt_.endpoint().node_id(), "binder",
                                     std::string(to_string(scheme_)) + " " + object.to_string())
                  : core::TraceRecorder::Span{};
  if (client_action == nullptr) co_return Err::BadRequest;
  if (scheme_ == Scheme::StandardNested)
    co_return co_await bind_standard(object, want, *client_action, probe, rebind);
  co_return co_await bind_enhanced(object, want, *client_action, probe, std::move(rebind));
}

sim::Task<BindResult> Binder::probe_servers(const std::vector<NodeId>& candidates,
                                            std::size_t want, const std::vector<NodeId>& st,
                                            Probe& probe, const char* dead_counter) {
  BindResult out;
  out.scheme = scheme_;
  out.st = st;
  for (NodeId node : candidates) {
    if (out.servers.size() >= want) break;
    switch (co_await probe(node, st)) {
      case ProbeResult::Ok:
        out.servers.push_back(node);
        break;
      case ProbeResult::Dead:
        out.failed.push_back(node);
        counters_.inc(dead_counter);
        break;
      case ProbeResult::Busy:
        counters_.inc("bind.busy_server_skipped");
        break;
    }
  }
  co_return out;
}

sim::Task<Result<BindResult>> Binder::bind_standard(Uid object, std::size_t want,
                                                    actions::AtomicAction& client_action,
                                                    Probe& probe, const Rebind& rebind) {
  // Fig 6: GetServer's read lock lasts until the client action ends. One
  // read takes it together with St's, both under the client action.
  sim::Simulator& sim = rt_.endpoint().node().sim();
  const sim::SimTime t0 = sim.now();
  auto view = co_await osdb_bind_read(rt_.endpoint(), naming_node_, object, client_action.uid());
  core::metric_record(rt_.metrics(), "naming.getserver_us",
                      static_cast<double>(sim.now() - t0));
  client_action.enlist({naming_node_, kGvdbService});
  if (!view.ok()) {
    counters_.inc("bind.getserver_failed");
    co_return view.error();
  }
  core::metric_gauge(rt_.metrics(), "naming.sv_size",
                     static_cast<double>(view.value().sv.sv.size()));

  // Fixed selection algorithm: walk Sv in database order. Sv is the
  // *static* set of potential servers, so dead nodes are discovered only
  // by failing to bind to them — the scheme's documented shortcoming.
  std::vector<NodeId> candidates = view.value().sv.sv;
  std::erase_if(candidates, [&rebind](NodeId node) {
    return std::find(rebind.avoid.begin(), rebind.avoid.end(), node) != rebind.avoid.end();
  });
  BindResult out =
      co_await probe_servers(candidates, want, view.value().st.st, probe, "bind.hard_way_failure");
  if (out.servers.empty()) {
    counters_.inc("bind.no_replicas");
    co_return Err::NoReplicas;
  }
  counters_.inc("bind.bound");
  co_return out;
}

sim::Task<Result<BindReply>> Binder::bind_call(Uid object, std::size_t want,
                                               const Uid& client_action, const Uid& token,
                                               const std::vector<NodeId>& avoid,
                                               const std::vector<NodeId>& remove,
                                               const Uid& release) {
  Result<BindReply> reply = Err::Timeout;
  for (int attempt = 0; attempt < kBindAttempts && reply.error() == Err::Timeout; ++attempt) {
    if (attempt > 0) counters_.inc("bind.resent");
    reply = co_await osdb_bind(rt_.endpoint(), naming_node_, object, client_action, token,
                               static_cast<std::uint32_t>(want), avoid, remove, release);
  }
  co_return reply;
}

sim::Task<Result<BindResult>> Binder::bind_enhanced(Uid object, std::size_t want,
                                                    actions::AtomicAction& client_action,
                                                    Probe& probe, Rebind rebind) {
  // Figs 7/8: a top-level binder action updates the database while
  // binding, keeping Sv current. It is one osdb.bind, which picks the
  // servers (in-use ones first, sec 4.1.3(i)), Increments them under a
  // fresh token and commits. A server that then fails its probe is
  // Removed (Dead) or avoided (Busy) by one more osdb.bind, which also
  // releases the binding it replaces.
  counters_.inc(scheme_ == Scheme::IndependentTopLevel ? "bind.independent_action"
                                                       : "bind.nested_toplevel_action");
  sim::Simulator& sim = rt_.endpoint().node().sim();
  BindResult out;
  out.scheme = scheme_;
  std::vector<NodeId> remove;
  std::vector<NodeId> probed_ok;
  Uid release = rebind.release;
  for (;;) {
    const Uid token = rt_.new_uid();
    const sim::SimTime t0 = sim.now();
    auto reply =
        co_await bind_call(object, want, client_action.uid(), token, rebind.avoid, remove, release);
    core::metric_record(rt_.metrics(), "naming.getserver_us",
                        static_cast<double>(sim.now() - t0));
    client_action.enlist({naming_node_, kGvdbService});
    if (!reply.ok()) {
      // Nothing was recorded but, with no reply at all, this call's own
      // binding; the one it was to release is still recorded. Drop both.
      std::vector<Uid> drop;
      if (reply.error() == Err::Timeout) drop.push_back(token);
      if (!release.nil()) drop.push_back(release);
      co_await drop_bindings(object, std::move(drop));
      counters_.inc("bind.getserver_failed");
      co_return reply.error();
    }
    counters_.inc("bind.removed_failed_server", remove.size());
    remove.clear();
    if (reply.value().active) counters_.inc("bind.join_active_group");
    out.st = reply.value().st.st;
    out.token = token;
    out.servers.clear();
    bool all_ok = true;
    for (NodeId node : reply.value().servers) {
      if (std::find(probed_ok.begin(), probed_ok.end(), node) != probed_ok.end()) {
        out.servers.push_back(node);
        continue;
      }
      switch (co_await probe(node, out.st)) {
        case ProbeResult::Ok:
          probed_ok.push_back(node);
          out.servers.push_back(node);
          break;
        case ProbeResult::Dead:
          out.failed.push_back(node);
          remove.push_back(node);
          counters_.inc("bind.probe_failure");
          all_ok = false;
          break;
        case ProbeResult::Busy:
          rebind.avoid.push_back(node);
          counters_.inc("bind.busy_server_skipped");
          all_ok = false;
          break;
      }
    }
    if (all_ok) break;
    release = token;  // replaced by the next call's binding
  }
  if (out.servers.empty()) {
    counters_.inc("bind.no_replicas");
    co_return Err::NoReplicas;  // the Removes still committed above
  }
  counters_.inc("bind.bound");
  co_return out;
}

sim::Task<> Binder::drop_bindings(Uid object, std::vector<Uid> tokens) {
  if (tokens.empty()) co_return;
  std::vector<UseRelease> drop;
  for (const Uid& token : tokens) drop.push_back(UseRelease{object, {}, token});
  for (int attempt = 0; attempt < kBindAttempts; ++attempt)
    if ((co_await osdb_decrement(rt_.endpoint(), naming_node_, rt_.endpoint().node_id(), drop))
            .ok())
      break;
}

sim::Task<Status> Binder::unbind(std::vector<UseRelease> bindings) {
  if (scheme_ == Scheme::StandardNested) co_return ok_status();  // lock release did the work
  std::erase_if(bindings, [](const UseRelease& b) { return b.servers.empty(); });
  if (bindings.empty()) co_return ok_status();
  const std::size_t n = bindings.size();
  Status s = co_await osdb_decrement(rt_.endpoint(), naming_node_, rt_.endpoint().node_id(),
                                     std::move(bindings));
  if (s.ok()) counters_.inc("bind.decremented", n);
  co_return s;
}

}  // namespace gv::naming
