#include "replication/recovery.h"

#include <algorithm>

#include "core/metrics.h"
#include "core/trace.h"
#include "util/backoff.h"
#include "util/log.h"

namespace gv::replication {

RecoveryDaemon::RecoveryDaemon(sim::Node& node, rpc::RpcEndpoint& endpoint,
                               store::ObjectStore& store, NodeId naming_node,
                               ObjectServerHost* host, actions::CoordinatorLog* log)
    : node_(node),
      endpoint_(endpoint),
      store_(store),
      naming_node_(naming_node),
      host_(host),
      runtime_(endpoint, /*uid_seed=*/0x4EC0 + node.id(), log),
      repairer_(node.job([this] { return repair_loop(); })) {
  node_.on_recover([this] {
    // Synchronously gate served objects BEFORE anything else can run:
    // until the Insert quiescence check re-admits this node, it must not
    // activate objects (another client's action may be in flight and our
    // store-loaded state would miss its effects).
    if (host_ != nullptr)
      for (const Uid& object : serves_) host_->block_activation(object);
    to_insert_ = serves_;
    (void)repairer_.start();
  });
}

sim::Task<> RecoveryDaemon::repair_loop() {
  // Keep repairing until everything local is validated and this node is
  // re-admitted as a server — transient failures (contended entry locks,
  // unreachable peers, non-quiescent objects) resolve with time. Bounded
  // so the event queue always drains. Jittered backoff between passes:
  // several nodes recovering from the same crash burst would otherwise
  // hit the naming node in lockstep on every pass.
  Backoff pace{BackoffConfig{100 * sim::kMillisecond, 2 * sim::kSecond},
               endpoint_.rng().fork()};
  bool clean = false;
  for (int attempt = 0; attempt < 100 && !clean; ++attempt) {
    co_await repair();
    clean = store_.suspect_objects().empty() && to_insert_.empty();
    if (!clean) co_await node_.sleep(pace.next());
  }
  if (!clean) counters_.inc("recovery.gave_up");
}

sim::Task<> RecoveryDaemon::probe_views() {
  std::vector<Uid> objects;
  for (const Uid& object : store_.local_objects())
    if (!store_.suspect(object)) objects.push_back(object);  // else being repaired
  if (objects.empty()) co_return;
  auto views = co_await naming::gvdb_get_views(endpoint_, naming_node_, std::move(objects));
  if (!views.ok()) co_return;  // naming node unreachable; probe again later
  for (const naming::ViewFill& fill : views.value().views) {
    if (!fill.view || std::ranges::count(fill.view->st, node_.id()) > 0) continue;
    // Excluded while alive (partition, transient unreachability). Demote
    // to SUSPECT — the store stops serving the possibly-stale state — and
    // let the repair loop validate, refresh, and re-Include.
    store_.mark_suspect(fill.object);
    counters_.inc("recovery.probe_demoted");
    core::trace_instant(runtime_.trace(), "recovery.probe_demoted", node_.id(), "recovery",
                        fill.object.to_string());
  }
  // Also restarts the loop for leftovers of one that gave up.
  if (!store_.suspect_objects().empty()) (void)repairer_.start();
}

void RecoveryDaemon::start_view_probe() {
  if (view_probe_ != nullptr && view_probe_->running) return;
  view_probe_ = &node_.every(kViewProbePeriod, [this] { return probe_views(); });
}

sim::Task<> RecoveryDaemon::repair() {
  counters_.inc("recovery.pass");
  auto span = core::trace_span(runtime_.trace(), "recovery.repair", node_.id(), "recovery",
                               std::to_string(store_.suspect_objects().size()) + " suspect");
  const sim::SimTime t0 = node_.sim().now();
  std::uint32_t refreshed = 0;

  // Reap aged orphan shadows up front, which also starts the in-doubt
  // resolver: the pending-shadow guard below waits until each shadow is
  // decided, and must not wait on one that nobody is asking about.
  (void)store_.reap_orphan_shadows();

  // Store role: validate / refresh each suspect object.
  for (const Uid& object : store_.suspect_objects()) {
    const bool was_refreshed = co_await repair_store_object(object);
    if (was_refreshed) ++refreshed;
  }

  // Server role: re-announce ourselves via Insert (quiescence check).
  // NotQuiescent / lock conflicts simply mean clients are busy; the
  // repair loop retries until the object falls quiet.
  for (const Uid& object : std::vector<Uid>(to_insert_.begin(), to_insert_.end()))
    if (co_await reinsert_server(object)) to_insert_.erase(object);
  core::metric_record(runtime_.metrics(), "recovery.repair_us",
                      static_cast<double>(node_.sim().now() - t0));
  span.end(std::to_string(refreshed) + " refreshed");
}

// Scan the given St members for the highest committed version held by a
// reachable peer; node == kNoNode if none reachable. Also reports whether
// any reachable peer holds a pending shadow for the object.
sim::Task<RecoveryDaemon::PeerScan> RecoveryDaemon::scan_peers(const Uid& object,
                                                               const std::vector<NodeId>& st) {
  PeerScan scan;
  for (NodeId peer : st) {
    if (peer == node_.id()) continue;
    auto p = co_await store::ObjectStore::remote_probe(endpoint_, peer, object);
    if (!p.ok()) continue;
    if (p.value().pending) scan.pending = true;
    if (p.value().version > scan.version) {
      scan.version = p.value().version;
      scan.node = peer;
    }
  }
  co_return scan;
}

sim::Task<bool> RecoveryDaemon::repair_store_object(const Uid& object) {
  actions::AtomicAction act{runtime_};
  auto st = co_await naming::ostdb_get_view(endpoint_, naming_node_, object, act.uid());
  act.enlist({naming_node_, naming::kGvdbService});
  if (!st.ok()) {
    (void)co_await act.abort();
    counters_.inc("recovery.getview_failed");
    co_return false;
  }

  const NodeId self = node_.id();
  const std::vector<NodeId>& st_nodes = st.value().st;
  const bool member = std::find(st_nodes.begin(), st_nodes.end(), self) != st_nodes.end();
  bool refreshed = false;

  // A pending shadow — ours or a reachable peer's — means the object's
  // next version may be DECIDED but not yet installed: 2PC phase 2
  // releases the naming-database locks before the store installs land, so
  // a version scan in that window reads committed versions that are
  // already superseded. Validating against them once re-admitted a stale
  // state that a later commit built on (a committed withdrawal was
  // silently overwritten). Back off and retry once the installs settle.
  if (store_.has_pending_shadow(object)) {
    (void)co_await act.abort();
    counters_.inc("recovery.pending_commit_wait");
    co_return false;
  }

  if (!member) {
    // We were excluded: re-admission is the delicate step. Take the
    // Include write lock FIRST — it conflicts with the read locks every
    // committing action holds on the St entry, so once granted no commit
    // is in the deciding phase and none can start until we finish.
    Status inc = co_await naming::ostdb_include(endpoint_, naming_node_, object, self, act.uid());
    if (!inc.ok()) {
      (void)co_await act.abort();
      counters_.inc("recovery.include_refused");
      co_return false;  // stays suspect; retried on the next pass
    }
  }
  // A member needs only to catch up on anything committed while it was
  // down: any in-flight commit's copy set includes it (its GetView read
  // the entry with it present).
  PeerScan scan = co_await scan_peers(object, st_nodes);
  if (scan.pending) {
    (void)co_await act.abort();
    counters_.inc("recovery.pending_commit_wait");
    co_return false;
  }
  if (!member && scan.node == sim::kNoNode) {
    // Nobody reachable holds a current state: we cannot prove our copy
    // is the latest. Abort the Include and stay suspect.
    (void)co_await act.abort();
    counters_.inc("recovery.no_peer");
    co_return false;
  }
  if (scan.node != sim::kNoNode && scan.version > store_.version(object).value_or(0)) {
    auto latest = co_await store::ObjectStore::remote_read(endpoint_, scan.node, object);
    if (!latest.ok()) {
      (void)co_await act.abort();
      counters_.inc("recovery.refresh_failed");
      co_return false;
    }
    (void)store_.write_direct(object, latest.value().version, std::move(latest.value().state));
    counters_.inc("recovery.refreshed");
    refreshed = true;
  }
  if (!member) counters_.inc("recovery.included");

  Status committed = co_await act.commit();
  if (!committed.ok()) {
    counters_.inc("recovery.commit_failed");
    co_return false;
  }
  GV_LOG(LogLevel::Debug, node_.sim().now(), "recovery",
         "node %u validated %s member=%d refreshed=%d v%llu", node_.id(),
         object.to_string().c_str(), member ? 1 : 0, refreshed ? 1 : 0,
         static_cast<unsigned long long>(store_.version(object).value_or(0)));
  store_.clear_suspect(object);
  counters_.inc("recovery.validated");
  co_return refreshed;
}

sim::Task<bool> RecoveryDaemon::reinsert_server(const Uid& object) {
  actions::AtomicAction act{runtime_};
  Status s = co_await naming::osdb_insert(endpoint_, naming_node_, object, node_.id(), act.uid());
  act.enlist({naming_node_, naming::kGvdbService});
  if (!s.ok()) {
    (void)co_await act.abort();
    counters_.inc(s.error() == Err::NotQuiescent ? "recovery.insert_not_quiescent"
                                                 : "recovery.insert_failed");
    co_return false;
  }
  Status committed = co_await act.commit();
  if (committed.ok()) {
    counters_.inc("recovery.reinserted");
    if (host_ != nullptr) host_->unblock_activation(object);
    co_return true;
  }
  co_return false;
}

}  // namespace gv::replication
