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
                                           actions::AtomicAction* client_action, Probe probe) {
  counters_.inc("bind.attempts");
  auto span = core::tracing(rt_.trace())
                  ? core::trace_span(rt_.trace(), "bind", rt_.endpoint().node_id(), "binder",
                                     std::string(to_string(scheme_)) + " " + object.to_string())
                  : core::TraceRecorder::Span{};
  if (client_action == nullptr) co_return Err::BadRequest;
  if (scheme_ == Scheme::StandardNested)
    co_return co_await bind_standard(object, want, *client_action, probe);
  co_return co_await bind_enhanced(object, want, *client_action, probe);
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
                                                    Probe& probe) {
  // Fig 6: GetServer's read lock lasts until the client action ends. One
  // read takes it together with St's, both under the client action.
  sim::Simulator& sim = rt_.endpoint().node().sim();
  const sim::SimTime t0 = sim.now();
  auto view = co_await osdb_bind_read(rt_.endpoint(), naming_node_, object, client_action.uid(),
                                      client_action.uid(), false);
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
  BindResult out = co_await probe_servers(view.value().sv.sv, want, view.value().st.st, probe,
                                          "bind.hard_way_failure");
  if (out.servers.empty()) {
    counters_.inc("bind.no_replicas");
    co_return Err::NoReplicas;
  }
  counters_.inc("bind.bound");
  co_return out;
}

sim::Task<Result<BindResult>> Binder::bind_enhanced(Uid object, std::size_t want,
                                                    actions::AtomicAction& client_action,
                                                    Probe& probe) {
  // Figs 7/8: an independent (or nested) top-level action updates the
  // database while binding, keeping Sv current.
  actions::AtomicAction act{rt_};
  counters_.inc(scheme_ == Scheme::IndependentTopLevel ? "bind.independent_action"
                                                       : "bind.nested_toplevel_action");
  // Write lock up front (update-mode read): this action WILL Increment
  // and possibly Remove; starting with a shared read lock would deadlock
  // two concurrent binders at promotion time. St's read lock goes to the
  // client action, which never waits for the binder's: the two are
  // distinct locks of the entry.
  sim::Simulator& sim = rt_.endpoint().node().sim();
  const sim::SimTime t0 = sim.now();
  auto view = co_await osdb_bind_read(rt_.endpoint(), naming_node_, object, client_action.uid(),
                                      act.uid(), true);
  core::metric_record(rt_.metrics(), "naming.getserver_us",
                      static_cast<double>(sim.now() - t0));
  client_action.enlist({naming_node_, kGvdbService});
  act.enlist({naming_node_, kGvdbService});
  if (!view.ok()) {
    (void)co_await act.abort();
    counters_.inc("bind.getserver_failed");
    co_return view.error();
  }
  const SvView& sv = view.value().sv;
  core::metric_gauge(rt_.metrics(), "naming.sv_size", static_cast<double>(sv.sv.size()));

  // Candidate order: if any use list is non-empty the object is already
  // active — bind only to servers with non-zero counters (sec 4.1.3(i));
  // otherwise we are free to select any subset of Sv.
  std::vector<NodeId> candidates;
  if (!sv.quiescent()) {
    counters_.inc("bind.join_active_group");
    for (NodeId node : sv.sv)
      if (sv.in_use(node)) candidates.push_back(node);
  } else {
    candidates = sv.sv;
  }
  BindResult out = co_await probe_servers(candidates, want, view.value().st.st, probe,
                                          "bind.probe_failure");

  // Remove the failed servers so later clients never retry them; then
  // record our presence in the use lists. The Increment commits the
  // action at the naming node, Removes included, so the call's reply is
  // the action's outcome. It is idempotent by the token, so a call whose
  // reply was lost is sent again.
  for (NodeId node : out.failed) {
    Status s = co_await osdb_remove(rt_.endpoint(), naming_node_, object, node, act.uid());
    if (s.ok()) counters_.inc("bind.removed_failed_server");
  }
  out.token = act.uid();
  Status s = Err::Timeout;
  for (int attempt = 0; attempt < kIncrementAttempts && s.error() == Err::Timeout; ++attempt) {
    if (attempt > 0) counters_.inc("bind.increment_resent");
    s = co_await osdb_increment(rt_.endpoint(), naming_node_, object, rt_.endpoint().node_id(),
                                out.servers, out.token);
  }
  if (!s.ok()) {
    // Refused (the naming node no longer holds the action) or no reply
    // at all. Abort, so a late Increment is refused; with no reply the
    // Increment may have committed, so drop its binding too.
    (void)co_await act.abort();
    if (s.error() == Err::Timeout && !out.servers.empty()) {
      const std::vector<UseRelease> mine{UseRelease{object, out.servers, out.token}};
      for (int attempt = 0; attempt < kIncrementAttempts; ++attempt)
        if ((co_await unbind(mine)).ok()) break;
    }
    counters_.inc("bind.action_aborted");
    co_return s.error();
  }
  act.committed_at_participant();
  if (out.servers.empty()) {
    counters_.inc("bind.no_replicas");
    co_return Err::NoReplicas;  // the Removes still committed above
  }
  counters_.inc("bind.bound");
  co_return out;
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
