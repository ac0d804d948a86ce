#include "naming/object_server_db.h"

#include <algorithm>

#include "core/metrics.h"
#include "naming/group_view_db.h"

namespace gv::naming {

namespace {

bool has_token(const std::vector<Uid>& tokens, const Uid& token) {
  return std::find(tokens.begin(), tokens.end(), token) != tokens.end();
}

// Add back the tokens an undone edit removed (those not present again).
void restore_tokens(std::vector<Uid>& tokens, const std::vector<Uid>& removed) {
  for (const Uid& t : removed)
    if (!has_token(tokens, t)) tokens.push_back(t);
}

}  // namespace

ObjectServerDb::ObjectServerDb(GroupViewDb& db)
    : db_(db), local_actions_(0xDEC00000ull + db.node_id()) {}

SvView ObjectServerDb::view_of(const Entry& e) const {
  SvView v;
  v.sv = e.sv;
  v.epoch = e.epoch;
  for (const auto& [server, clients] : e.use)
    for (const auto& [client, tokens] : clients)
      if (!tokens.empty())
        v.use.push_back(UseEntry{server, client, static_cast<std::uint32_t>(tokens.size())});
  return v;
}

void ObjectServerDb::bump_epoch(const Uid& object) {
  auto it = entries_.find(object);
  if (it == entries_.end()) return;
  ++it->second.epoch;
  db_.counters_.inc("osdb.epoch_bump");
  db_.note_invalidation(object);
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
  Status lk = co_await db_.lock_entry(lock_name(object), actions::LockMode::Read, action,
                                      "osdb.lock_refused");
  if (!lk.ok()) co_return lk.error();
  auto it2 = entries_.find(object);
  if (it2 == entries_.end()) co_return Err::NotFound;
  if (it2->second.epoch != epoch) {
    db_.counters_.inc("osdb.validate_stale");
    co_return Err::StaleView;
  }
  db_.counters_.inc("osdb.validate_ok");
  co_return ok_status();
}

sim::Task<Result<SvView>> ObjectServerDb::get_server(Uid object, Uid action, bool for_update) {
  db_.counters_.inc(for_update ? "osdb.get_server_update" : "osdb.get_server");
  auto it = entries_.find(object);
  if (it == entries_.end()) co_return Err::NotFound;
  const auto mode = for_update ? actions::LockMode::ExcludeWrite : actions::LockMode::Read;
  Status lk = co_await db_.lock_entry(lock_name(object), mode, action, "osdb.lock_refused");
  if (!lk.ok()) co_return lk.error();
  // Re-find: the entry map may have been edited while we waited.
  auto it2 = entries_.find(object);
  if (it2 == entries_.end()) co_return Err::NotFound;
  co_return view_of(it2->second);
}

sim::Task<Status> ObjectServerDb::insert(Uid object, NodeId host, Uid action) {
  db_.counters_.inc("osdb.insert");
  auto it = entries_.find(object);
  if (it == entries_.end()) co_return Err::NotFound;
  Status lk = co_await db_.lock_entry(lock_name(object), actions::LockMode::Write, action,
                                      "osdb.lock_refused");
  if (!lk.ok()) co_return lk.error();
  Entry& e = entries_.find(object)->second;
  // Sec 4.1.2: Insert is the recovered server node's quiescence check —
  // holding the write lock proves no S1 client is bound (their read locks
  // would conflict); with use lists we additionally require them empty.
  for (const auto& [server, clients] : e.use)
    for (const auto& [client, tokens] : clients)
      if (!tokens.empty()) {
        db_.counters_.inc("osdb.insert_not_quiescent");
        co_return Err::NotQuiescent;
      }
  if (std::find(e.sv.begin(), e.sv.end(), host) != e.sv.end())
    co_return ok_status();  // already a member: pure quiescence check
  e.sv.push_back(host);
  bump_epoch(object);
  db_.push_undo(action, object, kSvPart, [this, object, host] {
    auto eit = entries_.find(object);
    if (eit == entries_.end()) return;
    auto& sv = eit->second.sv;
    sv.erase(std::remove(sv.begin(), sv.end(), host), sv.end());
    bump_epoch(object);  // the dirty bump was observable; never reuse it
  });
  co_return ok_status();
}

sim::Task<Status> ObjectServerDb::remove(Uid object, NodeId host, Uid action) {
  db_.counters_.inc("osdb.remove");
  auto it = entries_.find(object);
  if (it == entries_.end()) co_return Err::NotFound;
  Status lk = co_await db_.lock_entry(lock_name(object), actions::LockMode::Write, action,
                                      "osdb.lock_refused");
  if (!lk.ok()) co_return lk.error();
  Entry& e = entries_.find(object)->second;
  auto pos = std::find(e.sv.begin(), e.sv.end(), host);
  if (pos == e.sv.end()) co_return ok_status();  // idempotent
  const std::size_t index = static_cast<std::size_t>(pos - e.sv.begin());
  e.sv.erase(pos);
  std::map<NodeId, Tokens> saved_use;
  if (auto uit = e.use.find(host); uit != e.use.end()) {
    saved_use = std::move(uit->second);
    e.use.erase(uit);
  }
  bump_epoch(object);
  db_.push_undo(action, object, kSvPart, [this, object, host, index, saved_use] {
    auto eit = entries_.find(object);
    if (eit == entries_.end()) return;
    auto& sv = eit->second.sv;
    sv.insert(sv.begin() + static_cast<long>(std::min(index, sv.size())), host);
    for (const auto& [client, tokens] : saved_use)
      restore_tokens(eit->second.use[host][client], tokens);
    bump_epoch(object);
  });
  co_return ok_status();
}

Status ObjectServerDb::increment(Uid object, NodeId client, std::vector<NodeId> hosts,
                                 Uid token) {
  db_.counters_.inc("osdb.increment");
  auto it = entries_.find(object);
  if (it == entries_.end()) return Err::NotFound;
  Entry& e = it->second;
  // A resend of an Increment that already committed: the token says so.
  for (NodeId host : hosts) {
    const Tokens* tokens = slot(e, host, client);
    if (tokens != nullptr && has_token(*tokens, token)) {
      db_.counters_.inc("osdb.increment_resent");
      return ok_status();
    }
  }
  // The bind action's update lock pins the view it read; without it the
  // action is gone from this incarnation and so are its Removes.
  if (!db_.locks_.holds(lock_name(object), token, actions::LockMode::ExcludeWrite)) {
    db_.counters_.inc("osdb.increment_refused");
    return Err::Aborted;
  }
  for (NodeId host : hosts) e.use[host][client].push_back(token);
  core::metric_gauge(db_.metrics_, "naming.use_list_len", static_cast<double>(use_count(e)));
  db_.commit_now(token, object, kSvPart);
  return ok_status();
}

sim::Task<Status> ObjectServerDb::decrement(NodeId client, std::vector<UseRelease> bindings) {
  for (const UseRelease& b : bindings) {
    db_.counters_.inc("osdb.decrement");
    if (entries_.find(b.object) == entries_.end()) continue;
    const std::string lock = lock_name(b.object);
    if (db_.locks_.holds(lock, b.token, actions::LockMode::Read)) {
      // The bind action itself is still live here (its client gave up on
      // the Increment): end it, so a late Increment finds nothing to commit.
      db_.counters_.inc("osdb.decrement_ended_bind");
      (void)co_await db_.abort(b.token);
    }
    const Uid local = local_actions_.next();
    Status lk = co_await db_.lock_entry(lock, actions::LockMode::Write, local, "osdb.lock_refused");
    if (!lk.ok()) co_return lk.error();  // the caller resends; done bindings are absent then
    Entry& e = entries_.find(b.object)->second;
    bool removed = false;
    for (NodeId host : b.servers) {
      Tokens* tokens = slot(e, host, client);
      if (tokens == nullptr || !has_token(*tokens, b.token)) continue;
      std::erase(*tokens, b.token);
      if (tokens->empty()) e.use[host].erase(client);
      removed = true;
    }
    if (removed)
      db_.persist(b.object, kSvPart);
    else
      db_.counters_.inc("osdb.decrement_absent");
    core::metric_gauge(db_.metrics_, "naming.use_list_len", static_cast<double>(use_count(e)));
    db_.locks_.release_all(local);
  }
  co_return ok_status();
}

ObjectServerDb::Tokens* ObjectServerDb::slot(Entry& e, NodeId server, NodeId client) {
  auto uit = e.use.find(server);
  if (uit == e.use.end()) return nullptr;
  auto cit = uit->second.find(client);
  return cit == uit->second.end() ? nullptr : &cit->second;
}

std::uint64_t ObjectServerDb::use_count(const Entry& e) {
  std::uint64_t n = 0;
  for (const auto& [server, clients] : e.use)
    for (const auto& [client, tokens] : clients) n += tokens.size();
  return n;
}

sim::Task<Result<std::uint32_t>> ObjectServerDb::purge_client(NodeId client, Uid action) {
  std::uint32_t purged = 0;
  // Snapshot the affected objects first; we lock and edit one at a time.
  std::vector<Uid> affected;
  for (const auto& [object, e] : entries_) {
    for (const auto& [server, clients] : e.use) {
      auto cit = clients.find(client);
      if (cit != clients.end() && !cit->second.empty()) {
        affected.push_back(object);
        break;
      }
    }
  }
  for (const Uid& object : affected) {
    Status lk = co_await db_.locks_.acquire(lock_name(object), actions::LockMode::Write, action,
                                            db_.cfg_.lock_wait);
    if (!lk.ok()) continue;  // skip contended entries; janitor will retry
    auto eit = entries_.find(object);
    if (eit == entries_.end()) continue;
    for (auto& [server, clients] : eit->second.use) {
      auto cit = clients.find(client);
      if (cit == clients.end()) continue;
      Tokens tokens = std::move(cit->second);
      clients.erase(cit);
      purged += static_cast<std::uint32_t>(tokens.size());
      db_.push_undo(action, object, kSvPart, [this, object, server = server, client, tokens] {
        auto rit = entries_.find(object);
        if (rit != entries_.end()) restore_tokens(rit->second.use[server][client], tokens);
      });
    }
  }
  db_.counters_.inc("osdb.purged_entries", purged);
  co_return purged;
}

std::vector<NodeId> ObjectServerDb::clients_in_use() const {
  std::vector<NodeId> out;
  for (const auto& [object, e] : entries_)
    for (const auto& [server, clients] : e.use)
      for (const auto& [client, tokens] : clients)
        if (!tokens.empty() && std::find(out.begin(), out.end(), client) == out.end())
          out.push_back(client);
  return out;
}

// --------------------------------------------------------------- RPC glue

void ObjectServerDb::register_rpc(rpc::RpcEndpoint& endpoint) {
  endpoint.serve(kOsdbInsert, [this](NodeId from, Uid object, NodeId host, Uid action) {
    db_.note_activity(action, from);
    return insert(object, host, action);
  });
  endpoint.serve(kOsdbRemove, [this](NodeId from, Uid object, NodeId host, Uid action) {
    db_.note_activity(action, from);
    return remove(object, host, action);
  });
  // Increment and Decrement end or need no action here, so neither
  // records activity: a refused or resent call must not leave an owner.
  endpoint.serve(kOsdbIncrement,
                 [this](NodeId, Uid object, NodeId client, std::vector<NodeId> hosts, Uid token) {
                   return increment(object, client, std::move(hosts), token);
                 });
  endpoint.serve(kOsdbDecrement, [this](NodeId, NodeId client, std::vector<UseRelease> bindings) {
    return decrement(client, std::move(bindings));
  });
  endpoint.serve(kOsdbPurgeClient, [this](NodeId from, NodeId client, Uid action) {
    db_.note_activity(action, from);
    return purge_client(client, action);
  });
}

}  // namespace gv::naming
