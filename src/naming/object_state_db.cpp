#include "naming/object_state_db.h"

#include <algorithm>

#include "core/metrics.h"
#include "core/trace.h"
#include "naming/group_view_db.h"
#include "util/log.h"

namespace gv::naming {

ObjectStateDb::ObjectStateDb(GroupViewDb& db, ExcludePolicy policy) : db_(db), policy_(policy) {}

std::vector<NodeId> ObjectStateDb::peek(const Uid& object) const {
  auto it = entries_.find(object);
  return it == entries_.end() ? std::vector<NodeId>{} : it->second.st;
}

sim::Task<Result<StView>> ObjectStateDb::get_view(Uid object, Uid action) {
  db_.counters_.inc("ostdb.get_view");
  auto it = entries_.find(object);
  if (it == entries_.end()) co_return Err::NotFound;
  Status lk = co_await db_.lock_entry(lock_name(object), actions::LockMode::Read, action,
                                      "ostdb.lock_refused");
  if (!lk.ok()) co_return lk.error();
  auto it2 = entries_.find(object);
  if (it2 == entries_.end()) co_return Err::NotFound;
  co_return StView{it2->second.st, it2->second.epoch};
}

void ObjectStateDb::bump_epoch(const Uid& object) {
  auto it = entries_.find(object);
  if (it == entries_.end()) return;
  ++it->second.epoch;
  db_.counters_.inc("ostdb.epoch_bump");
  db_.note_invalidation(object);
}

std::uint64_t ObjectStateDb::epoch_of(const Uid& object) const noexcept {
  auto it = entries_.find(object);
  return it == entries_.end() ? 0 : it->second.epoch;
}

Result<StView> ObjectStateDb::peek_view(const Uid& object) const {
  auto it = entries_.find(object);
  if (it == entries_.end()) return Err::NotFound;
  return StView{it->second.st, it->second.epoch};
}

sim::Task<Status> ObjectStateDb::validate_epoch(Uid object, std::uint64_t epoch, Uid action) {
  auto it = entries_.find(object);
  if (it == entries_.end()) co_return Err::NotFound;
  Status lk = co_await db_.lock_entry(lock_name(object), actions::LockMode::Read, action,
                                      "ostdb.lock_refused");
  if (!lk.ok()) co_return lk.error();
  auto it2 = entries_.find(object);
  if (it2 == entries_.end()) co_return Err::NotFound;
  if (it2->second.epoch != epoch) {
    db_.counters_.inc("ostdb.validate_stale");
    co_return Err::StaleView;
  }
  db_.counters_.inc("ostdb.validate_ok");
  co_return ok_status();
}

sim::Task<Status> ObjectStateDb::exclude(std::vector<ExcludeItem> items, Uid action) {
  db_.counters_.inc("ostdb.exclude");
  auto span = core::trace_span(db_.trace_, "ostdb.exclude", db_.node_.id(), "naming",
                               std::to_string(items.size()) + " items by " + action.to_string());
  const sim::SimTime t_batch = db_.node_.sim().now();
  const actions::LockMode mode = policy_ == ExcludePolicy::ExcludeWriteLock
                                     ? actions::LockMode::ExcludeWrite
                                     : actions::LockMode::Write;
  for (const ExcludeItem& item : items) {
    if (entries_.find(item.object) == entries_.end()) co_return Err::NotFound;
    // Sec 4.2.1: the caller usually already holds a read lock from
    // GetView; this is the promotion the exclude-write type exists for.
    Status lk = co_await db_.locks_.promote(lock_name(item.object), mode, action,
                                            db_.cfg_.lock_wait);
    if (!lk.ok()) {
      db_.counters_.inc("ostdb.exclude_lock_refused");
      db_.trigger_orphan_sweep();
      co_return lk.error();
    }
    auto it = entries_.find(item.object);
    if (it == entries_.end()) co_return Err::NotFound;
    Entry& e = it->second;
    std::vector<NodeId> removed;
    for (NodeId host : item.nodes) {
      auto pos = std::find(e.st.begin(), e.st.end(), host);
      if (pos != e.st.end()) {
        e.st.erase(pos);
        removed.push_back(host);
      }
    }
    if (!removed.empty()) {
      db_.counters_.inc("ostdb.excluded_nodes", removed.size());
      core::metric_gauge(db_.metrics_, "naming.st_size", static_cast<double>(e.st.size()));
      bump_epoch(item.object);
      for (NodeId host : removed) {
        GV_LOG(LogLevel::Debug, db_.node_.sim().now(), "ostdb", "exclude %u from %s by %s", host,
               item.object.to_string().c_str(), action.to_string().c_str());
        core::trace_instant(db_.trace_, "ostdb.excluded", db_.node_.id(), "naming",
                            "node " + std::to_string(host) + " from " + item.object.to_string());
      }
      db_.push_undo(action, item.object, kStPart, [this, object = item.object, removed, action] {
        auto eit = entries_.find(object);
        if (eit == entries_.end()) return;
        for (NodeId host : removed) {
          GV_LOG(LogLevel::Debug, db_.node_.sim().now(), "ostdb",
                 "UNDO exclude: re-add %u to %s (action %s)", host, object.to_string().c_str(),
                 action.to_string().c_str());
          eit->second.st.push_back(host);
        }
        bump_epoch(object);  // the dirty bump was observable; never reuse it
      });
    }
  }
  core::metric_record(db_.metrics_, "naming.exclude_batch_us",
                      static_cast<double>(db_.node_.sim().now() - t_batch));
  span.end("ok");
  co_return ok_status();
}

sim::Task<Status> ObjectStateDb::include(Uid object, NodeId host, Uid action) {
  db_.counters_.inc("ostdb.include");
  auto it = entries_.find(object);
  if (it == entries_.end()) co_return Err::NotFound;
  Status lk = co_await db_.lock_entry(lock_name(object), actions::LockMode::Write, action,
                                      "ostdb.lock_refused");
  if (!lk.ok()) co_return lk.error();
  Entry& e = entries_.find(object)->second;
  if (std::find(e.st.begin(), e.st.end(), host) != e.st.end()) co_return ok_status();
  GV_LOG(LogLevel::Debug, db_.node_.sim().now(), "ostdb", "include %u into %s by %s", host,
         object.to_string().c_str(), action.to_string().c_str());
  core::trace_instant(db_.trace_, "ostdb.included", db_.node_.id(), "naming",
                      "node " + std::to_string(host) + " into " + object.to_string());
  e.st.push_back(host);
  core::metric_gauge(db_.metrics_, "naming.st_size", static_cast<double>(e.st.size()));
  bump_epoch(object);
  db_.push_undo(action, object, kStPart, [this, object, host] {
    auto eit = entries_.find(object);
    if (eit == entries_.end()) return;
    auto& st = eit->second.st;
    st.erase(std::remove(st.begin(), st.end(), host), st.end());
    bump_epoch(object);  // the dirty bump was observable; never reuse it
  });
  co_return ok_status();
}

// --------------------------------------------------------------- RPC glue

void ObjectStateDb::register_rpc(rpc::RpcEndpoint& endpoint) {
  endpoint.serve(kOstdbGetView, [this](NodeId from, Uid object, Uid action) {
    db_.note_activity(action, from);
    return get_view(object, action);
  });
  endpoint.serve(kOstdbExclude, [this](NodeId from, std::vector<ExcludeItem> items, Uid action) {
    db_.note_activity(action, from);
    return exclude(std::move(items), action);
  });
  endpoint.serve(kOstdbPeek, [this](NodeId, Uid object) -> Result<std::vector<NodeId>> {
    if (!known(object)) return Err::NotFound;
    return peek(object);
  });
  endpoint.serve(kOstdbInclude, [this](NodeId from, Uid object, NodeId host, Uid action) {
    db_.note_activity(action, from);
    return include(object, host, action);
  });
}

}  // namespace gv::naming
