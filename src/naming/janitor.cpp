#include "naming/janitor.h"

#include "util/log.h"

namespace gv::naming {

UseListJanitor::UseListJanitor(GroupViewDb& db, rpc::RpcEndpoint& endpoint,
                               actions::CoordinatorLog* log, sim::SimTime period)
    : db_(db),
      endpoint_(endpoint),
      detector_(endpoint),
      runtime_(endpoint, /*uid_seed=*/0x7A17, log),
      period_(period) {}

void UseListJanitor::start() {
  if (duty_ != nullptr && duty_->running) return;
  duty_ = &endpoint_.node().every(period_, [this]() -> sim::Task<> { (void)co_await sweep(); });
}

sim::Task<std::uint32_t> UseListJanitor::sweep() {
  counters_.inc("janitor.sweep");
  std::uint32_t purged_total = 0;
  for (NodeId client : db_.servers().clients_in_use()) {
    const bool ok = co_await detector_.alive(client);
    if (ok) continue;
    counters_.inc("janitor.dead_client");
    // Purge under an independent top-level action so the repair commits
    // (and persists) regardless of any application activity.
    actions::AtomicAction act{runtime_};
    auto purged = co_await db_.purge_client(client, act.uid(), endpoint_.node_id());
    act.enlist({endpoint_.node_id(), kGvdbService});
    if (purged.ok() && (co_await act.commit()).ok()) {
      purged_total += purged.value();
      counters_.inc("janitor.purged", purged.value());
    } else {
      (void)co_await act.abort();
    }
  }
  // Also sweep orphaned actions: an action whose phase-2 RPC was lost
  // holds locks and buffered mutations here with nothing else left to
  // trigger resolution (sweep_orphans consults the coordinator before
  // presuming abort).
  (void)co_await db_.sweep_orphans();
  co_return purged_total;
}

}  // namespace gv::naming
