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
  const Entry& e = entries_.at(object);
  Buffer b;
  b.pack_u64(e.epoch);
  b.pack_u32_vector(std::vector<std::uint32_t>(e.sv.begin(), e.sv.end()));
  b.pack_u32(static_cast<std::uint32_t>(e.use.size()));
  for (const auto& [server, clients] : e.use) {
    b.pack_u32(server);
    b.pack_u32(static_cast<std::uint32_t>(clients.size()));
    for (const auto& [client, count] : clients) b.pack_u32(client).pack_u32(count);
  }
  return b;
}

void ObjectServerDb::load_entries(const std::map<Uid, Buffer>& records) {
  auto unpack = [](Buffer b, Entry& e) {
    auto epoch = b.unpack_u64();
    auto sv = b.unpack_u32_vector();
    auto nuse = b.unpack_u32();
    if (!epoch.ok() || !sv.ok() || !nuse.ok()) return false;
    e.epoch = epoch.value();
    e.sv.assign(sv.value().begin(), sv.value().end());
    for (std::uint32_t j = 0; j < nuse.value(); ++j) {
      auto server = b.unpack_u32();
      auto nclients = b.unpack_u32();
      if (!server.ok() || !nclients.ok()) return false;
      auto& clients = e.use[server.value()];
      for (std::uint32_t k = 0; k < nclients.value(); ++k) {
        auto client = b.unpack_u32();
        auto count = b.unpack_u32();
        if (!client.ok() || !count.ok()) return false;
        clients[client.value()] = count.value();
      }
    }
    return true;
  };
  entries_.clear();
  for (const auto& [object, record] : records) {
    Entry e;
    if (unpack(record, e)) entries_[object] = std::move(e);
  }
}

// --------------------------------------------------------------- RPC glue

namespace {

Buffer pack_view(const SvView& v) {
  Buffer out;
  out.reserve(8 + 4 + 4 * v.sv.size() + 4 + 12 * v.use.size());
  out.pack_u64(v.epoch);
  out.pack_u32_vector(std::vector<std::uint32_t>(v.sv.begin(), v.sv.end()));
  out.pack_u32(static_cast<std::uint32_t>(v.use.size()));
  for (const auto& u : v.use) out.pack_u32(u.server).pack_u32(u.client).pack_u32(u.count);
  return out;
}

Result<SvView> unpack_view(Buffer& b) {
  auto epoch = b.unpack_u64();
  auto sv = b.unpack_u32_vector();
  auto n = b.unpack_u32();
  if (!epoch.ok() || !sv.ok() || !n.ok()) return Err::BadRequest;
  SvView v;
  v.epoch = epoch.value();
  v.sv.assign(sv.value().begin(), sv.value().end());
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto server = b.unpack_u32();
    auto client = b.unpack_u32();
    auto count = b.unpack_u32();
    if (!server.ok() || !client.ok() || !count.ok()) return Err::BadRequest;
    v.use.push_back(UseEntry{server.value(), client.value(), count.value()});
  }
  return v;
}

}  // namespace

void ObjectServerDb::register_rpc(rpc::RpcEndpoint& endpoint) {
  endpoint.register_method(kOsdbService, "get_server",
                           [this](NodeId from, Buffer args) -> sim::Task<Result<Buffer>> {
                             auto object = args.unpack_uid();
                             auto action = args.unpack_uid();
                             auto for_update = args.unpack_bool();
                             if (!object.ok() || !action.ok() || !for_update.ok())
                               co_return Err::BadRequest;
                             note_activity(action.value(), from);
                             auto r = co_await get_server(object.value(), action.value(),
                                                          for_update.value());
                             if (!r.ok()) co_return r.error();
                             co_return pack_view(r.value());
                           });
  endpoint.register_method(kOsdbService, "insert",
                           [this](NodeId from, Buffer args) -> sim::Task<Result<Buffer>> {
                             auto object = args.unpack_uid();
                             auto host = args.unpack_u32();
                             auto action = args.unpack_uid();
                             if (!object.ok() || !host.ok() || !action.ok())
                               co_return Err::BadRequest;
                             note_activity(action.value(), from);
                             Status s =
                                 co_await insert(object.value(), host.value(), action.value());
                             if (!s.ok()) co_return s.error();
                             co_return Buffer{};
                           });
  endpoint.register_method(kOsdbService, "remove",
                           [this](NodeId from, Buffer args) -> sim::Task<Result<Buffer>> {
                             auto object = args.unpack_uid();
                             auto host = args.unpack_u32();
                             auto action = args.unpack_uid();
                             if (!object.ok() || !host.ok() || !action.ok())
                               co_return Err::BadRequest;
                             note_activity(action.value(), from);
                             Status s =
                                 co_await remove(object.value(), host.value(), action.value());
                             if (!s.ok()) co_return s.error();
                             co_return Buffer{};
                           });
  auto use_list_op = [this](bool inc) {
    return [this, inc](NodeId from, Buffer args) -> sim::Task<Result<Buffer>> {
      auto object = args.unpack_uid();
      auto client = args.unpack_u32();
      auto hosts = args.unpack_u32_vector();
      auto action = args.unpack_uid();
      if (!object.ok() || !client.ok() || !hosts.ok() || !action.ok()) co_return Err::BadRequest;
      note_activity(action.value(), from);
      std::vector<NodeId> host_ids(hosts.value().begin(), hosts.value().end());
      // Plain if/else: GCC 12 miscompiles co_await inside ?: operands
      // (double-destroys the selected temporary task).
      Status s = Err::BadRequest;
      if (inc)
        s = co_await increment(object.value(), client.value(), std::move(host_ids),
                               action.value());
      else
        s = co_await decrement(object.value(), client.value(), std::move(host_ids),
                               action.value());
      if (!s.ok()) co_return s.error();
      co_return Buffer{};
    };
  };
  endpoint.register_method(kOsdbService, "increment", use_list_op(true));
  endpoint.register_method(kOsdbService, "decrement", use_list_op(false));
  endpoint.register_method(kOsdbService, "purge_client",
                           [this](NodeId from, Buffer args) -> sim::Task<Result<Buffer>> {
                             auto client = args.unpack_u32();
                             auto action = args.unpack_uid();
                             if (!client.ok() || !action.ok()) co_return Err::BadRequest;
                             note_activity(action.value(), from);
                             auto r = co_await purge_client(client.value(), action.value());
                             if (!r.ok()) co_return r.error();
                             Buffer out;
                             out.pack_u32(r.value());
                             co_return out;
                           });
}

// ------------------------------------------------------------ client stubs

sim::Task<Result<SvView>> osdb_get_server(rpc::RpcEndpoint& ep, NodeId naming_node, Uid object,
                                          Uid action, bool for_update) {
  Buffer args;
  args.pack_uid(object).pack_uid(action).pack_bool(for_update);
  auto r = co_await ep.call(naming_node, kOsdbService, "get_server", std::move(args));
  if (!r.ok()) co_return r.error();
  co_return unpack_view(r.value());
}

sim::Task<Status> osdb_insert(rpc::RpcEndpoint& ep, NodeId naming_node, Uid object, NodeId host,
                              Uid action) {
  Buffer args;
  args.pack_uid(object).pack_u32(host).pack_uid(action);
  auto r = co_await ep.call(naming_node, kOsdbService, "insert", std::move(args));
  if (!r.ok()) co_return r.error();
  co_return ok_status();
}

sim::Task<Status> osdb_remove(rpc::RpcEndpoint& ep, NodeId naming_node, Uid object, NodeId host,
                              Uid action) {
  Buffer args;
  args.pack_uid(object).pack_u32(host).pack_uid(action);
  auto r = co_await ep.call(naming_node, kOsdbService, "remove", std::move(args));
  if (!r.ok()) co_return r.error();
  co_return ok_status();
}

namespace {
sim::Task<Status> use_list_call(rpc::RpcEndpoint& ep, NodeId naming_node, const char* method,
                                Uid object, NodeId client, std::vector<NodeId> hosts, Uid action) {
  Buffer args;
  args.pack_uid(object).pack_u32(client);
  args.pack_u32_vector(std::vector<std::uint32_t>(hosts.begin(), hosts.end()));
  args.pack_uid(action);
  auto r = co_await ep.call(naming_node, kOsdbService, method, std::move(args));
  if (!r.ok()) co_return r.error();
  co_return ok_status();
}
}  // namespace

sim::Task<Status> osdb_increment(rpc::RpcEndpoint& ep, NodeId naming_node, Uid object,
                                 NodeId client, std::vector<NodeId> hosts, Uid action) {
  co_return co_await use_list_call(ep, naming_node, "increment", object, client, std::move(hosts),
                                   action);
}

sim::Task<Status> osdb_decrement(rpc::RpcEndpoint& ep, NodeId naming_node, Uid object,
                                 NodeId client, std::vector<NodeId> hosts, Uid action) {
  co_return co_await use_list_call(ep, naming_node, "decrement", object, client, std::move(hosts),
                                   action);
}

}  // namespace gv::naming
