#include "actions/orphan_resolver.h"

#include <algorithm>
#include <vector>

#include "actions/coordinator_log.h"

namespace gv::actions {

OrphanResolver::OrphanResolver(rpc::RpcEndpoint& endpoint, Aged aged, Apply apply, Swept swept)
    : endpoint_(endpoint),
      detector_(endpoint),
      aged_(std::move(aged)),
      apply_(std::move(apply)),
      swept_(std::move(swept)),
      sweep_job_(endpoint.node().job([this]() -> sim::Task<> { (void)co_await sweep(); })) {}

void OrphanResolver::note(const Uid& action, sim::NodeId owner) {
  Owner& rec = owners_[action];
  rec.node = owner;
  rec.last_seen = endpoint_.node().sim().now();
}

bool OrphanResolver::inherit(const Uid& child, const Uid& parent) {
  auto it = owners_.find(child);
  if (it == owners_.end()) return false;
  note(parent, it->second.node);
  owners_.erase(it);
  return true;
}

sim::Task<std::uint32_t> OrphanResolver::sweep() {
  std::uint32_t aborted = 0;
  // Snapshot, in UID order: the calls below suspend, and phase-2
  // messages may end tracked actions meanwhile.
  std::vector<std::pair<Uid, Owner>> snapshot(owners_.begin(), owners_.end());
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [action, owner] : snapshot) {
    if (!tracks(action)) continue;  // finished meanwhile
    auto outcome = co_await CoordinatorLog::remote_outcome(endpoint_, owner.node, action);
    if (!tracks(action)) continue;  // raced a real phase-2
    if (outcome.ok() && outcome.value() == TxnOutcome::Committed) {
      co_await apply_(action, Verdict::Committed);
      continue;
    }
    if (outcome.ok() && outcome.value() == TxnOutcome::Aborted) {
      co_await apply_(action, Verdict::Aborted);
      ++aborted;
      continue;
    }
    // Unknown outcome: the action may simply still be running.
    const bool aged = aged_(endpoint_.node().sim().now() - owner.last_seen);
    bool dead = false;
    if (!aged) dead = !co_await detector_.alive(owner.node);
    if (!aged && !dead) continue;
    if (!tracks(action)) continue;  // raced a phase-2 during the ping
    co_await apply_(action, aged ? Verdict::AgedOut : Verdict::OwnerDead);
    ++aborted;
  }
  if (swept_) swept_(aborted);
  co_return aborted;
}

}  // namespace gv::actions
