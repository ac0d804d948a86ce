#include "naming/object_server_db.h"

#include <algorithm>

#include "core/metrics.h"
#include "core/trace.h"
#include "util/log.h"

namespace gv::naming {

ObjectServerDb::ObjectServerDb(sim::Node& node, store::ObjectStore& store,
                               rpc::RpcEndpoint& endpoint, actions::TxnRegistry& txns,
                               NamingConfig cfg)
    : NamingDbBase(node, store, endpoint, kOsdbUid, cfg) {
  txns.add(kOsdbService, this);
  register_rpc(endpoint);
}

void ObjectServerDb::create(const Uid& object, std::vector<NodeId> sv) {
  Entry e;
  e.sv = std::move(sv);
  entries_[object] = std::move(e);
  persist_entry(object);  // registration itself must survive a naming-node crash
}

SvView ObjectServerDb::view_of(const Entry& e) const {
  SvView v;
  v.sv = e.sv;
  v.epoch = e.epoch;
  for (const auto& [server, clients] : e.use)
    for (const auto& [client, count] : clients)
      if (count > 0) v.use.push_back(UseEntry{server, client, count});
  return v;
}

void ObjectServerDb::bump_epoch(const Uid& object) {
  auto it = entries_.find(object);
  if (it == entries_.end()) return;
  ++it->second.epoch;
  counters_.inc("osdb.epoch_bump");
  if (epoch_listener_) epoch_listener_(object);
}

std::uint64_t ObjectServerDb::epoch_of(const Uid& object) const noexcept {
  auto it = entries_.find(object);
  return it == entries_.end() ? 0 : it->second.epoch;
}

Result<SvView> ObjectServerDb::peek_view(const Uid& object) const {
  auto it = entries_.find(object);
  if (it == entries_.end()) return Err::NotFound;
  return view_of(it->second);
}

sim::Task<Status> ObjectServerDb::validate_epoch(Uid object, std::uint64_t epoch, Uid action) {
  auto it = entries_.find(object);
  if (it == entries_.end()) co_return Err::NotFound;
  Status lk = co_await locks_.acquire(lock_name(object), actions::LockMode::Read, action,
                                      cfg_.lock_wait);
  if (!lk.ok()) {
    counters_.inc("osdb.lock_refused");
    trigger_orphan_sweep();
    co_return lk.error();
  }
  auto it2 = entries_.find(object);
  if (it2 == entries_.end()) co_return Err::NotFound;
  if (it2->second.epoch != epoch) {
    counters_.inc("osdb.validate_stale");
    co_return Err::StaleView;
  }
  counters_.inc("osdb.validate_ok");
  co_return ok_status();
}

sim::Task<Result<SvView>> ObjectServerDb::get_server(Uid object, Uid action, bool for_update) {
  counters_.inc(for_update ? "osdb.get_server_update" : "osdb.get_server");
  auto it = entries_.find(object);
  if (it == entries_.end()) co_return Err::NotFound;
  const auto mode = for_update ? actions::LockMode::Write : actions::LockMode::Read;
  Status lk = co_await locks_.acquire(lock_name(object), mode, action, cfg_.lock_wait);
  if (!lk.ok()) {
    counters_.inc("osdb.lock_refused");
    trigger_orphan_sweep();
    co_return lk.error();
  }
  // Re-find: the entry map may have been edited while we waited.
  auto it2 = entries_.find(object);
  if (it2 == entries_.end()) co_return Err::NotFound;
  co_return view_of(it2->second);
}

sim::Task<Status> ObjectServerDb::insert(Uid object, NodeId host, Uid action) {
  counters_.inc("osdb.insert");
  auto it = entries_.find(object);
  if (it == entries_.end()) co_return Err::NotFound;
  Status lk = co_await locks_.acquire(lock_name(object), actions::LockMode::Write, action,
                                      cfg_.lock_wait);
  if (!lk.ok()) {
    counters_.inc("osdb.lock_refused");
    trigger_orphan_sweep();
    co_return lk.error();
  }
  Entry& e = entries_.find(object)->second;
  // Sec 4.1.2: Insert is the recovered server node's quiescence check —
  // holding the write lock proves no S1 client is bound (their read locks
  // would conflict); with use lists we additionally require them empty.
  for (const auto& [server, clients] : e.use)
    for (const auto& [client, count] : clients)
      if (count > 0) {
        counters_.inc("osdb.insert_not_quiescent");
        co_return Err::NotQuiescent;
      }
  if (std::find(e.sv.begin(), e.sv.end(), host) != e.sv.end())
    co_return ok_status();  // already a member: pure quiescence check
  e.sv.push_back(host);
  bump_epoch(object);
  push_undo(action, object, [this, object, host] {
    auto eit = entries_.find(object);
    if (eit == entries_.end()) return;
    auto& sv = eit->second.sv;
    sv.erase(std::remove(sv.begin(), sv.end(), host), sv.end());
    bump_epoch(object);  // the dirty bump was observable; never reuse it
  });
  co_return ok_status();
}

sim::Task<Status> ObjectServerDb::remove(Uid object, NodeId host, Uid action) {
  counters_.inc("osdb.remove");
  auto it = entries_.find(object);
  if (it == entries_.end()) co_return Err::NotFound;
  Status lk = co_await locks_.acquire(lock_name(object), actions::LockMode::Write, action,
                                      cfg_.lock_wait);
  if (!lk.ok()) {
    counters_.inc("osdb.lock_refused");
    trigger_orphan_sweep();
    co_return lk.error();
  }
  Entry& e = entries_.find(object)->second;
  auto pos = std::find(e.sv.begin(), e.sv.end(), host);
  if (pos == e.sv.end()) co_return ok_status();  // idempotent
  const std::size_t index = static_cast<std::size_t>(pos - e.sv.begin());
  e.sv.erase(pos);
  auto saved_use = e.use.find(host) != e.use.end() ? e.use[host]
                                                   : std::map<NodeId, std::uint32_t>{};
  e.use.erase(host);
  bump_epoch(object);
  push_undo(action, object, [this, object, host, index, saved_use] {
    auto eit = entries_.find(object);
    if (eit == entries_.end()) return;
    auto& sv = eit->second.sv;
    sv.insert(sv.begin() + static_cast<long>(std::min(index, sv.size())), host);
    if (!saved_use.empty()) eit->second.use[host] = saved_use;
    bump_epoch(object);
  });
  co_return ok_status();
}

sim::Task<Status> ObjectServerDb::increment(Uid object, NodeId client, std::vector<NodeId> hosts,
                                            Uid action) {
  counters_.inc("osdb.increment");
  auto it = entries_.find(object);
  if (it == entries_.end()) co_return Err::NotFound;
  Status lk = co_await locks_.acquire(lock_name(object), actions::LockMode::Write, action,
                                      cfg_.lock_wait);
  if (!lk.ok()) {
    counters_.inc("osdb.lock_refused");
    trigger_orphan_sweep();
    co_return lk.error();
  }
  Entry& e = entries_.find(object)->second;
  for (NodeId host : hosts) ++e.use[host][client];
  std::uint64_t total_uses = 0;
  for (const auto& [server, clients] : e.use)
    for (const auto& [c, n] : clients) total_uses += n;
  core::metric_gauge(metrics_, "naming.use_list_len", static_cast<double>(total_uses));
  push_undo(action, object, [this, object, client, hosts] {
    auto eit = entries_.find(object);
    if (eit == entries_.end()) return;
    for (NodeId host : hosts) {
      auto uit = eit->second.use.find(host);
      if (uit == eit->second.use.end()) continue;
      auto cit = uit->second.find(client);
      if (cit == uit->second.end()) continue;
      if (cit->second > 0) --cit->second;
      if (cit->second == 0) uit->second.erase(cit);
    }
  });
  co_return ok_status();
}

sim::Task<Status> ObjectServerDb::decrement(Uid object, NodeId client, std::vector<NodeId> hosts,
                                            Uid action) {
  counters_.inc("osdb.decrement");
  auto it = entries_.find(object);
  if (it == entries_.end()) co_return Err::NotFound;
  Status lk = co_await locks_.acquire(lock_name(object), actions::LockMode::Write, action,
                                      cfg_.lock_wait);
  if (!lk.ok()) {
    counters_.inc("osdb.lock_refused");
    trigger_orphan_sweep();
    co_return lk.error();
  }
  Entry& e = entries_.find(object)->second;
  for (NodeId host : hosts) {
    auto uit = e.use.find(host);
    if (uit == e.use.end()) continue;
    auto cit = uit->second.find(client);
    if (cit == uit->second.end() || cit->second == 0) continue;
    --cit->second;
    if (cit->second == 0) uit->second.erase(cit);
  }
  std::uint64_t total_uses = 0;
  for (const auto& [server, clients] : e.use)
    for (const auto& [c, n] : clients) total_uses += n;
  core::metric_gauge(metrics_, "naming.use_list_len", static_cast<double>(total_uses));
  push_undo(action, object, [this, object, client, hosts] {
    auto eit = entries_.find(object);
    if (eit == entries_.end()) return;
    for (NodeId host : hosts) ++eit->second.use[host][client];
  });
  co_return ok_status();
}

sim::Task<Result<std::uint32_t>> ObjectServerDb::purge_client(NodeId client, Uid action) {
  std::uint32_t purged = 0;
  // Snapshot the affected objects first; we lock and edit one at a time.
  std::vector<Uid> affected;
  for (const auto& [object, e] : entries_) {
    for (const auto& [server, clients] : e.use) {
      auto cit = clients.find(client);
      if (cit != clients.end() && cit->second > 0) {
        affected.push_back(object);
        break;
      }
    }
  }
  for (const Uid& object : affected) {
    Status lk = co_await locks_.acquire(lock_name(object), actions::LockMode::Write, action,
                                        cfg_.lock_wait);
    if (!lk.ok()) continue;  // skip contended entries; janitor will retry
    auto eit = entries_.find(object);
    if (eit == entries_.end()) continue;
    for (auto& [server, clients] : eit->second.use) {
      auto cit = clients.find(client);
      if (cit == clients.end()) continue;
      const std::uint32_t count = cit->second;
      clients.erase(cit);
      purged += count;
      push_undo(action, object, [this, object, server = server, client, count] {
        auto rit = entries_.find(object);
        if (rit != entries_.end()) rit->second.use[server][client] = count;
      });
    }
  }
  counters_.inc("osdb.purged_entries", purged);
  co_return purged;
}

std::vector<NodeId> ObjectServerDb::clients_in_use() const {
  std::vector<NodeId> out;
  for (const auto& [object, e] : entries_)
    for (const auto& [server, clients] : e.use)
      for (const auto& [client, count] : clients)
        if (count > 0 && std::find(out.begin(), out.end(), client) == out.end())
          out.push_back(client);
  return out;
}

// ------------------------------------------------------------ persistence

Buffer ObjectServerDb::pack_entry(const Uid& object) const {
  return rpc::encode(entries_.at(object));
}

void ObjectServerDb::load_entries(const std::map<Uid, Buffer>& records) {
  entries_.clear();
  for (const auto& [object, record] : records) {
    Buffer b = record;
    Entry e;
    if (rpc::decode(b, e)) entries_[object] = std::move(e);
  }
}

// --------------------------------------------------------------- RPC glue

void ObjectServerDb::register_rpc(rpc::RpcEndpoint& endpoint) {
  endpoint.serve(kOsdbGetServer, [this](NodeId from, Uid object, Uid action, bool for_update) {
    note_activity(action, from);
    return get_server(object, action, for_update);
  });
  endpoint.serve(kOsdbInsert, [this](NodeId from, Uid object, NodeId host, Uid action) {
    note_activity(action, from);
    return insert(object, host, action);
  });
  endpoint.serve(kOsdbRemove, [this](NodeId from, Uid object, NodeId host, Uid action) {
    note_activity(action, from);
    return remove(object, host, action);
  });
  endpoint.serve(kOsdbIncrement, [this](NodeId from, Uid object, NodeId client,
                                        std::vector<NodeId> hosts, Uid action) {
    note_activity(action, from);
    return increment(object, client, std::move(hosts), action);
  });
  endpoint.serve(kOsdbDecrement, [this](NodeId from, Uid object, NodeId client,
                                        std::vector<NodeId> hosts, Uid action) {
    note_activity(action, from);
    return decrement(object, client, std::move(hosts), action);
  });
  endpoint.serve(kOsdbPurgeClient, [this](NodeId from, NodeId client, Uid action) {
    note_activity(action, from);
    return purge_client(client, action);
  });
}

}  // namespace gv::naming
