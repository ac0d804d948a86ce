#include "naming/db_base.h"

#include <set>

#include "actions/coordinator_log.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "util/log.h"

namespace gv::naming {

NamingDbBase::NamingDbBase(sim::Node& node, store::ObjectStore& store,
                           rpc::RpcEndpoint& endpoint, Uid db_uid, NamingConfig cfg)
    : node_(node),
      store_(store),
      endpoint_(endpoint),
      db_uid_(db_uid),
      cfg_(cfg),
      locks_(node.sim()) {
  node_.on_recover([this] {
    // The database is a persistent object: rebuild from the local store.
    // In-flight actions died with the node; their locks and undo records
    // were volatile, so the reloaded committed state is exactly right.
    undo_.clear();
    owners_.clear();
    locks_.reset();
    load_entries(store_.records(db_uid_));
  });
}

void NamingDbBase::note_activity(const Uid& action, NodeId owner) {
  auto& rec = owners_[action];
  rec.node = owner;
  rec.last_seen = node_.sim().now();
  core::metric_gauge(metrics_, "naming.lock_table_depth",
                     static_cast<double>(locks_.table_depth()));
}

void NamingDbBase::trigger_orphan_sweep() {
  if (sweep_in_progress_) return;
  sweep_in_progress_ = true;
  node_.sim().spawn([](NamingDbBase& self) -> sim::Task<> {
    (void)co_await self.sweep_orphans();
    self.sweep_in_progress_ = false;
  }(*this));
}

sim::Task<std::uint32_t> NamingDbBase::sweep_orphans() {
  std::uint32_t aborted = 0;
  // Snapshot: the pings below suspend, and commits may mutate owners_.
  std::vector<std::pair<Uid, ActionOwner>> snapshot(owners_.begin(), owners_.end());
  const std::uint64_t my_epoch = node_.epoch();
  for (const auto& [action, owner] : snapshot) {
    if (!node_.up() || node_.epoch() != my_epoch) co_return aborted;
    if (owners_.find(action) == owners_.end()) continue;  // finished meanwhile
    // Ask the coordinator FIRST, for every tracked action: an action can
    // look orphaned here merely because its phase-2 RPC was lost in
    // transit, and a decided outcome is safe to apply at any age — doing
    // so immediately keeps a lost phase-2 from wedging the entry lock
    // for the full orphan-age window (found by the gv_campaign netchaos
    // mix). A dead coordinator node answers nothing and we fall through
    // to the presumed abort, which is then correct (Gray's blocking
    // case: the decision, if any, died with the volatile log).
    auto outcome = co_await actions::CoordinatorLog::remote_outcome(endpoint_, owner.node, action);
    if (owners_.find(action) == owners_.end()) continue;  // raced a real phase-2
    if (outcome.ok() && outcome.value() == actions::TxnOutcome::Committed) {
      (void)co_await commit(action);
      counters_.inc("db.orphan_committed");
      continue;
    }
    if (outcome.ok() && outcome.value() == actions::TxnOutcome::Aborted) {
      rollback(action);
      locks_.release_all(action);
      owners_.erase(action);
      ++aborted;
      counters_.inc("db.orphan_decided_abort");
      continue;
    }
    // Unknown outcome: the action may simply still be running (or its
    // owner keeps no coordinator log). Presume abort only once it
    // outlives any plausible action lifetime, or its owner (the client
    // process or its whole node) is provably gone — a failed outcome
    // call is NOT proof, so liveness comes from a ping.
    const bool aged = node_.sim().now() - owner.last_seen > kOrphanActionAge;
    bool dead = false;
    if (!aged) {
      auto ping = co_await endpoint_.call(owner.node, "sys", "ping", Buffer{},
                                          20 * sim::kMillisecond);
      dead = !ping.ok();
    }
    if (!aged && !dead) continue;
    auto it = owners_.find(action);
    if (it == owners_.end()) continue;
    rollback(action);
    locks_.release_all(action);
    owners_.erase(it);
    ++aborted;
    counters_.inc(aged ? "db.orphan_aged_out" : "db.orphan_owner_dead");
  }
  if (aborted > 0)
    core::trace_instant(trace_, "db.orphan_sweep", node_.id(), "naming",
                        std::to_string(aborted) + " aborted");
  co_return aborted;
}

sim::Task<bool> NamingDbBase::prepare(const Uid&) {
  // Mutations were validated (locks + entry checks) when buffered; a
  // naming database can always complete a commit locally.
  co_return true;
}

sim::Task<Status> NamingDbBase::commit(const Uid& txn) {
  commit_now(txn);
  co_return ok_status();
}

void NamingDbBase::commit_now(const Uid& txn, const Uid& also) {
  // Persist each touched entry once, while the action still holds its
  // lock: the entry then holds exactly the committed state. Read-only
  // actions (GetServer, GetView, validate) have no undo records.
  std::set<Uid> touched;
  if (!also.nil()) touched.insert(also);
  auto it = undo_.find(txn);
  if (it != undo_.end()) {
    for (const Undo& u : it->second) touched.insert(u.entry);
    undo_.erase(it);
  }
  for (const Uid& entry : touched) persist_entry(entry);
  owners_.erase(txn);
  locks_.release_all(txn);
  counters_.inc("db.commit");
}

sim::Task<Status> NamingDbBase::abort(const Uid& txn) {
  rollback(txn);
  owners_.erase(txn);
  locks_.release_all(txn);
  counters_.inc("db.abort");
  co_return ok_status();
}

void NamingDbBase::nested_commit(const Uid& child, const Uid& parent) {
  locks_.transfer(child, parent);
  auto it = undo_.find(child);
  if (it != undo_.end()) {
    auto& dst = undo_[parent];
    // Append: rollback runs in reverse, so the child's undos (appended
    // last) are undone first — correct nesting order.
    dst.insert(dst.end(), std::make_move_iterator(it->second.begin()),
               std::make_move_iterator(it->second.end()));
    undo_.erase(it);
  }
  // The parent inherits ownership tracking from the child.
  auto oit = owners_.find(child);
  if (oit != owners_.end()) {
    note_activity(parent, oit->second.node);
    owners_.erase(oit);
  }
  counters_.inc("db.nested_commit");
}

void NamingDbBase::nested_abort(const Uid& child) {
  rollback(child);
  owners_.erase(child);
  locks_.release_all(child);
  counters_.inc("db.nested_abort");
}

void NamingDbBase::rollback(const Uid& txn) {
  auto it = undo_.find(txn);
  if (it == undo_.end()) return;
  for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) rit->fn();
  undo_.erase(it);
}

}  // namespace gv::naming
