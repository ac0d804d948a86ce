#include "naming/db_base.h"

#include "core/metrics.h"
#include "core/trace.h"

namespace gv::naming {

NamingDbBase::NamingDbBase(sim::Node& node, store::ObjectStore& store,
                           rpc::RpcEndpoint& endpoint, Uid db_uid, NamingConfig cfg)
    : node_(node),
      store_(store),
      endpoint_(endpoint),
      db_uid_(db_uid),
      cfg_(cfg),
      locks_(node.sim()),
      orphans_(
          node, endpoint,
          [](sim::SimTime idle) { return idle > kOrphanActionAge; },
          [this](Uid action, actions::OrphanResolver::Verdict verdict) -> sim::Task<> {
            using Verdict = actions::OrphanResolver::Verdict;
            if (verdict == Verdict::Committed) {
              (void)co_await commit(action);
              counters_.inc("db.orphan_committed");
              co_return;
            }
            rollback(action);
            locks_.release_all(action);
            orphans_.forget(action);
            counters_.inc(verdict == Verdict::Aborted   ? "db.orphan_decided_abort"
                          : verdict == Verdict::AgedOut ? "db.orphan_aged_out"
                                                        : "db.orphan_owner_dead");
          },
          [this](std::uint32_t aborted) {
            if (aborted > 0)
              core::trace_instant(trace_, "db.orphan_sweep", node_.id(), "naming",
                                  std::to_string(aborted) + " aborted");
          }) {
  node_.on_recover([this] {
    // The database is a persistent object: rebuild from the local store.
    // In-flight actions died with the node; their locks and undo records
    // were volatile, so the reloaded committed state is exactly right.
    undo_.clear();
    orphans_.clear();
    locks_.reset();
    load_entries(store_.records(db_uid_));
  });
}

void NamingDbBase::note_activity(const Uid& action, NodeId owner) {
  orphans_.note(action, owner);
  core::metric_gauge(metrics_, "naming.lock_table_depth",
                     static_cast<double>(locks_.table_depth()));
}

sim::Task<actions::Vote> NamingDbBase::prepare(const Uid& txn, bool may_leave) {
  // Mutations were validated (locks + entry checks) when buffered; a
  // naming database can always complete a commit locally. An action that
  // only read here (GetView, GetServer, validate) has nothing to persist:
  // when allowed, it ends here and its read locks go now.
  if (!may_leave || undo_.count(txn) > 0) co_return actions::Vote::Yes;
  orphans_.forget(txn);
  locks_.release_all(txn);
  counters_.inc("db.read_only_vote");
  co_return actions::Vote::ReadOnly;
}

sim::Task<Status> NamingDbBase::commit(const Uid& txn) {
  commit_now(txn);
  co_return ok_status();
}

sim::Task<Status> NamingDbBase::lock_entry(std::string lock, actions::LockMode mode, Uid action,
                                           const char* refused) {
  Status lk = co_await locks_.acquire(std::move(lock), mode, action, cfg_.lock_wait);
  if (!lk.ok()) {
    counters_.inc(refused);
    trigger_orphan_sweep();
  }
  co_return lk;
}

void NamingDbBase::commit_now(const Uid& txn, const Uid& also, EntryParts also_parts) {
  // Persist each touched entry once, while the action still holds the
  // locks of the parts it edited: those parts then hold exactly the
  // committed state. Read-only actions (GetServer, GetView, validate)
  // have no undo records.
  std::map<Uid, EntryParts> touched;
  if (!also.nil()) touched[also] |= also_parts;
  auto it = undo_.find(txn);
  if (it != undo_.end()) {
    for (const Undo& u : it->second) touched[u.entry] |= u.part;
    undo_.erase(it);
  }
  for (const auto& [entry, parts] : touched) persist(entry, parts);
  orphans_.forget(txn);
  locks_.release_all(txn);
  counters_.inc("db.commit");
}

sim::Task<Status> NamingDbBase::abort(const Uid& txn) {
  rollback(txn);
  orphans_.forget(txn);
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
  if (orphans_.inherit(child, parent))
    core::metric_gauge(metrics_, "naming.lock_table_depth",
                       static_cast<double>(locks_.table_depth()));
  counters_.inc("db.nested_commit");
}

void NamingDbBase::nested_abort(const Uid& child) {
  rollback(child);
  orphans_.forget(child);
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
