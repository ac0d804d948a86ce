#include "naming/group_view_db.h"

#include <algorithm>
#include <type_traits>

#include "core/metrics.h"
#include "core/trace.h"
#include "util/log.h"

namespace gv::naming {

namespace {

// Ring capacity: enough to cover the membership churn a client can miss
// between two of its own naming interactions; larger rings only pad every
// reply leaving the naming node.
constexpr std::size_t kRecentBumpCap = 8;
// Released bind tokens remembered: a bind request still in flight with
// one (a copy its client stopped waiting for) arrives within a few call
// deadlines of the release.
constexpr std::size_t kReleasedCap = 256;

using Tokens = ObjectServerDb::Tokens;

bool has_token(const Tokens& tokens, const Uid& token) {
  return std::find(tokens.begin(), tokens.end(), token) != tokens.end();
}

// Add back the tokens an undone edit removed (those not present again).
void restore_tokens(Tokens& tokens, const Tokens& removed) {
  for (const Uid& t : removed)
    if (!has_token(tokens, t)) tokens.push_back(t);
}

// One client's tokens through one server, or nullptr if none.
Tokens* slot(ObjectServerDb::Entry& e, NodeId server, NodeId client) {
  auto uit = e.use.find(server);
  if (uit == e.use.end()) return nullptr;
  auto cit = uit->second.find(client);
  return cit == uit->second.end() ? nullptr : &cit->second;
}

// True if any client is bound through `server`.
bool in_use(const ObjectServerDb::Entry& e, NodeId server) {
  auto uit = e.use.find(server);
  if (uit == e.use.end()) return false;
  for (const auto& [client, tokens] : uit->second)
    if (!tokens.empty()) return true;
  return false;
}

bool contains(const std::vector<NodeId>& nodes, NodeId node) {
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

// Live bindings of an entry, all slots.
std::uint64_t use_count(const ObjectServerDb::Entry& e) {
  std::uint64_t n = 0;
  for (const auto& [server, clients] : e.use)
    for (const auto& [client, tokens] : clients) n += tokens.size();
  return n;
}

template <class Table>
constexpr bool kIsSv = std::is_same_v<Table, ObjectServerDb>;

// The view epoch of `object`'s entry in `table`, or nullptr if unknown.
template <class Table>
std::uint64_t* epoch_slot(Table& table, const Uid& object) {
  auto it = table.entries.find(object);
  return it == table.entries.end() ? nullptr : &it->second.epoch;
}

}  // namespace

GroupViewDb::GroupViewDb(sim::Node& node, store::ObjectStore& store, rpc::RpcEndpoint& endpoint,
                         actions::TxnRegistry& txns, NamingConfig cfg, ExcludePolicy policy)
    : node_(node),
      store_(store),
      cfg_(cfg),
      policy_(policy),
      locks_(node.sim()),
      orphans_(
          endpoint, [](sim::SimTime idle) { return idle > kOrphanActionAge; },
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
          }),
      local_actions_(0xDEC00000ull + node.id()) {
  node_.on_recover([this] {
    // The database is a persistent object: rebuild from the local store.
    // In-flight actions died with the node; their locks and undo records
    // were volatile, so the reloaded committed state is exactly right.
    undo_.clear();
    orphans_.clear();
    locks_.reset();
    released_.clear();
    load_entries(store_.records(kGvdbUid));
    piggyback_stale_ = true;  // a new incarnation, and reloaded epochs
  });
  txns.add(kGvdbService, this);
  endpoint.set_piggyback_provider([this]() -> const Buffer& { return piggyback_blob(); });
  register_rpc(endpoint);
}

void GroupViewDb::create_object(const Uid& object, std::vector<NodeId> sv,
                                std::vector<NodeId> st) {
  servers_.entries[object] = ObjectServerDb::Entry{std::move(sv), {}, 1};
  states_.entries[object] = ObjectStateDb::Entry{std::move(st), 1};
  persist(object, kSvPart | kStPart);  // registration must survive a naming-node crash
  piggyback_stale_ = true;             // a re-created entry restarts its epochs
}

// ------------------------------------------------------------ persistence

void GroupViewDb::persist(const Uid& object, EntryParts parts) {
  // One record per object: the Sv part, then the St part. A part the
  // caller did not edit comes from memory unless another action holds
  // its lock for update: then memory may hold that action's uncommitted
  // edit, and the part comes from the stable record.
  const bool sv_now = (parts & kSvPart) != 0 || !locks_.held_for_update({object, kSvPart});
  const bool st_now = (parts & kStPart) != 0 || !locks_.held_for_update({object, kStPart});
  ObjectServerDb::Entry sv;
  ObjectStateDb::Entry st;
  if (!sv_now || !st_now) {
    Buffer old = store_.records(kGvdbUid).at(object);
    (void)rpc::decode(old, sv, st);
  }
  store_.put_record(kGvdbUid, object, rpc::encode(sv_now ? servers_.entries.at(object) : sv,
                                                  st_now ? states_.entries.at(object) : st));
}

void GroupViewDb::load_entries(const std::map<Uid, Buffer>& records) {
  servers_.entries.clear();
  states_.entries.clear();
  for (const auto& [object, bytes] : records) {
    Buffer b = bytes;
    ObjectServerDb::Entry sv;
    ObjectStateDb::Entry st;
    if (!rpc::decode(b, sv, st)) continue;
    servers_.entries[object] = std::move(sv);
    states_.entries[object] = std::move(st);
  }
}

// -------------------------------------------------------- the participant

void GroupViewDb::note_activity(const Uid& action, NodeId owner) {
  orphans_.note(action, owner);
  core::metric_gauge(metrics_, "naming.lock_table_depth",
                     static_cast<double>(locks_.table_depth()));
}

sim::Task<actions::Vote> GroupViewDb::prepare(const Uid& txn, bool may_leave) {
  co_return vote(txn, may_leave);
}

actions::Vote GroupViewDb::vote(const Uid& txn, bool may_leave) {
  // Mutations were validated (locks + entry checks) when buffered; a
  // naming database can always complete a commit locally. An action that
  // only read here (GetView, GetServer, validate) has nothing to persist:
  // when allowed, it ends here and its read locks go now.
  if (!may_leave || undo_.count(txn) > 0) return actions::Vote::Yes;
  orphans_.forget(txn);
  locks_.release_all(txn);
  counters_.inc("db.read_only_vote");
  return actions::Vote::ReadOnly;
}

sim::Task<Status> GroupViewDb::commit(const Uid& txn) {
  commit_now(txn);
  co_return ok_status();
}

void GroupViewDb::commit_now(const Uid& txn, const Uid& also, EntryParts also_parts) {
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

sim::Task<Status> GroupViewDb::abort(const Uid& txn) {
  rollback(txn);
  orphans_.forget(txn);
  locks_.release_all(txn);
  counters_.inc("db.abort");
  co_return ok_status();
}

void GroupViewDb::nested_commit(const Uid& child, const Uid& parent) {
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

void GroupViewDb::nested_abort(const Uid& child) {
  rollback(child);
  orphans_.forget(child);
  locks_.release_all(child);
  counters_.inc("db.nested_abort");
}

void GroupViewDb::rollback(const Uid& txn) {
  auto it = undo_.find(txn);
  if (it == undo_.end()) return;
  for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) rit->fn();
  undo_.erase(it);
}

template <class Table>
sim::Task<Result<typename Table::Entry*>> GroupViewDb::lock_entry(Table& table, Uid object,
                                                                  actions::LockMode mode,
                                                                  Uid action) {
  if (!table.known(object)) co_return Err::NotFound;
  const actions::LockKey key{object, kIsSv<Table> ? kSvPart : kStPart};
  Status lk = co_await locks_.acquire(key, mode, action, cfg_.lock_wait);
  if (lk.error() == Err::Aborted) co_return Err::Aborted;  // the action ended while it waited
  if (!lk.ok()) {
    counters_.inc(kIsSv<Table> ? "osdb.lock_refused" : "ostdb.lock_refused");
    (void)orphans_.trigger();
    co_return lk.error();
  }
  auto it = table.entries.find(object);
  if (it == table.entries.end()) co_return Err::NotFound;
  co_return &it->second;
}

template <class Table>
sim::Task<Status> GroupViewDb::check_epoch(Table& table, Uid object, std::uint64_t epoch,
                                           Uid action) {
  auto e = co_await lock_entry(table, object, actions::LockMode::Read, action);
  if (!e.ok()) co_return e.error();
  if (e.value()->epoch != epoch) {
    counters_.inc(kIsSv<Table> ? "osdb.validate_stale" : "ostdb.validate_stale");
    co_return Err::StaleView;
  }
  counters_.inc(kIsSv<Table> ? "osdb.validate_ok" : "ostdb.validate_ok");
  co_return ok_status();
}

void GroupViewDb::bump_epoch(const Uid& object, EntryParts part) {
  const bool sv = part == kSvPart;
  std::uint64_t* epoch = sv ? epoch_slot(servers_, object) : epoch_slot(states_, object);
  if (epoch == nullptr) return;
  ++*epoch;
  counters_.inc(sv ? "osdb.epoch_bump" : "ostdb.epoch_bump");
  note_invalidation(object);
}

// ----------------------------------------- the Object Server table (osdb)

sim::Task<Result<BindView>> GroupViewDb::bind_read(NodeId from, Uid object,
                                                   Uid client_action) {
  counters_.inc("gvdb.bind_read");
  note_activity(client_action, from);
  // St first: a client action's read lock on St waits only for an
  // Include, never for a binder.
  auto st = co_await get_view(object, client_action);
  if (!st.ok()) co_return st.error();
  counters_.inc("osdb.get_server");
  auto sv = co_await lock_entry(servers_, object, actions::LockMode::Read, client_action);
  if (!sv.ok()) co_return sv.error();
  co_return BindView{ObjectServerDb::view_of(*sv.value()), std::move(st).value()};
}

sim::Task<Result<BindReply>> GroupViewDb::bind(NodeId from, Uid object, Uid client_action,
                                               Uid token, std::uint32_t want,
                                               std::vector<NodeId> avoid,
                                               std::vector<NodeId> remove, Uid release) {
  counters_.inc("osdb.bind");
  note_activity(client_action, from);
  auto st = co_await get_view(object, client_action);
  if (!st.ok()) co_return st.error();
  // The bind action's lock on Sv lives for this call alone: EXCLUDE-WRITE
  // (exclusive among updaters, compatible with readers, sec 4.2.1), or
  // WRITE when it Removes. The token is not noted as an activity: no
  // round trip passes while it holds anything here.
  const auto mode = remove.empty() ? actions::LockMode::ExcludeWrite : actions::LockMode::Write;
  auto found = co_await lock_entry(servers_, object, mode, token);
  if (!found.ok()) co_return found.error();
  ObjectServerDb::Entry& e = *found.value();
  BindReply out{{}, std::move(st).value(), false};
  // From here on the call does not suspend: what it reads and what it
  // records are one step.
  for (NodeId host : e.sv) {
    const Tokens* tokens = slot(e, host, from);
    if (tokens != nullptr && has_token(*tokens, token)) out.servers.push_back(host);
  }
  if (!out.servers.empty()) {
    counters_.inc("osdb.bind_resent");  // its first copy committed
    locks_.release_all(token);
    co_return out;
  }
  if (std::find(released_.begin(), released_.end(), token) != released_.end()) {
    counters_.inc("osdb.bind_refused");
    locks_.release_all(token);
    co_return Err::Aborted;
  }
  bool changed = false;
  for (NodeId host : remove) {
    auto pos = std::find(e.sv.begin(), e.sv.end(), host);
    if (pos == e.sv.end()) continue;  // a resend's Remove already committed
    counters_.inc("osdb.remove");
    e.sv.erase(pos);
    e.use.erase(host);
    bump_epoch(object, kSvPart);
    changed = true;
  }
  if (!release.nil()) {
    if (drop_token(e, from, release)) changed = true;
    note_released(release);
  }
  out.active = use_count(e) > 0;
  for (NodeId host : e.sv) {
    if (out.servers.size() >= want) break;
    if (contains(avoid, host) || (out.active && !in_use(e, host))) continue;
    out.servers.push_back(host);
    e.use[host][from].push_back(token);
  }
  if (out.servers.empty() && !changed) {
    locks_.release_all(token);
    co_return out;
  }
  core::metric_gauge(metrics_, "naming.use_list_len", static_cast<double>(use_count(e)));
  commit_now(token, object, kSvPart);
  co_return out;
}

void GroupViewDb::note_released(const Uid& token) {
  released_.push_back(token);
  if (released_.size() > kReleasedCap) released_.pop_front();
}

bool GroupViewDb::drop_token(ObjectServerDb::Entry& e, NodeId client, const Uid& token) {
  bool dropped = false;
  for (auto& [server, clients] : e.use) {
    auto cit = clients.find(client);
    if (cit == clients.end() || !has_token(cit->second, token)) continue;
    std::erase(cit->second, token);
    if (cit->second.empty()) clients.erase(cit);
    dropped = true;
  }
  return dropped;
}

sim::Task<Status> GroupViewDb::insert(Uid object, NodeId host, Uid action) {
  counters_.inc("osdb.insert");
  auto found = co_await lock_entry(servers_, object, actions::LockMode::Write, action);
  if (!found.ok()) co_return found.error();
  ObjectServerDb::Entry& e = *found.value();
  // Sec 4.1.2: Insert is the recovered server node's quiescence check —
  // holding the write lock proves no S1 client is bound (their read locks
  // would conflict); with use lists we additionally require them empty.
  if (use_count(e) > 0) {
    counters_.inc("osdb.insert_not_quiescent");
    co_return Err::NotQuiescent;
  }
  if (std::find(e.sv.begin(), e.sv.end(), host) != e.sv.end())
    co_return ok_status();  // already a member: pure quiescence check
  e.sv.push_back(host);
  bump_epoch(object, kSvPart);
  push_undo(action, object, kSvPart, [this, object, host] {
    auto eit = servers_.entries.find(object);
    if (eit == servers_.entries.end()) return;
    auto& sv = eit->second.sv;
    sv.erase(std::remove(sv.begin(), sv.end(), host), sv.end());
    bump_epoch(object, kSvPart);
  });
  co_return ok_status();
}

sim::Task<Status> GroupViewDb::remove(Uid object, NodeId host, Uid action) {
  counters_.inc("osdb.remove");
  auto found = co_await lock_entry(servers_, object, actions::LockMode::Write, action);
  if (!found.ok()) co_return found.error();
  ObjectServerDb::Entry& e = *found.value();
  auto pos = std::find(e.sv.begin(), e.sv.end(), host);
  if (pos == e.sv.end()) co_return ok_status();  // idempotent
  const std::size_t index = static_cast<std::size_t>(pos - e.sv.begin());
  e.sv.erase(pos);
  std::map<NodeId, Tokens> saved_use;
  if (auto uit = e.use.find(host); uit != e.use.end()) {
    saved_use = std::move(uit->second);
    e.use.erase(uit);
  }
  bump_epoch(object, kSvPart);
  push_undo(action, object, kSvPart, [this, object, host, index, saved_use] {
    auto eit = servers_.entries.find(object);
    if (eit == servers_.entries.end()) return;
    auto& sv = eit->second.sv;
    sv.insert(sv.begin() + static_cast<long>(std::min(index, sv.size())), host);
    for (const auto& [client, tokens] : saved_use)
      restore_tokens(eit->second.use[host][client], tokens);
    bump_epoch(object, kSvPart);
  });
  co_return ok_status();
}

sim::Task<Status> GroupViewDb::decrement(NodeId client, std::vector<UseRelease> bindings) {
  for (const UseRelease& b : bindings) {
    counters_.inc("osdb.decrement");
    if (!servers_.known(b.object)) continue;
    const Uid local = local_actions_.next();
    auto found = co_await lock_entry(servers_, b.object, actions::LockMode::Write, local);
    if (!found.ok()) co_return found.error();  // the caller resends; done bindings are absent then
    ObjectServerDb::Entry& e = *found.value();
    bool removed = false;
    if (b.servers.empty()) removed = drop_token(e, client, b.token);
    for (NodeId host : b.servers) {
      Tokens* tokens = slot(e, host, client);
      if (tokens == nullptr || !has_token(*tokens, b.token)) continue;
      std::erase(*tokens, b.token);
      if (tokens->empty()) e.use[host].erase(client);
      removed = true;
    }
    if (removed)
      persist(b.object, kSvPart);
    else
      counters_.inc("osdb.decrement_absent");
    note_released(b.token);
    core::metric_gauge(metrics_, "naming.use_list_len", static_cast<double>(use_count(e)));
    locks_.release_all(local);
  }
  co_return ok_status();
}

sim::Task<Result<std::uint32_t>> GroupViewDb::purge_client(NodeId client, Uid action,
                                                           NodeId owner) {
  // Tracked here, not in the RPC glue: the janitor calls this locally, and
  // an untracked action whose phase 2 is lost would hold its Sv locks
  // for the rest of the run.
  note_activity(action, owner);
  std::uint32_t purged = 0;
  // Snapshot the affected objects first; we lock and edit one at a time,
  // in UID order.
  std::vector<Uid> affected;
  for (const auto& [object, e] : servers_.entries) {
    for (const auto& [server, clients] : e.use) {
      auto cit = clients.find(client);
      if (cit != clients.end() && !cit->second.empty()) {
        affected.push_back(object);
        break;
      }
    }
  }
  std::sort(affected.begin(), affected.end());
  for (const Uid& object : affected) {
    auto found = co_await lock_entry(servers_, object, actions::LockMode::Write, action);
    if (found.error() == Err::Aborted) co_return Err::Aborted;
    if (!found.ok()) continue;  // skip contended entries; janitor will retry
    for (auto& [server, clients] : found.value()->use) {
      auto cit = clients.find(client);
      if (cit == clients.end()) continue;
      Tokens tokens = std::move(cit->second);
      clients.erase(cit);
      purged += static_cast<std::uint32_t>(tokens.size());
      push_undo(action, object, kSvPart, [this, object, server = server, client, tokens] {
        auto rit = servers_.entries.find(object);
        if (rit != servers_.entries.end())
          restore_tokens(rit->second.use[server][client], tokens);
      });
    }
  }
  counters_.inc("osdb.purged_entries", purged);
  co_return purged;
}

// ----------------------------------------- the Object State table (ostdb)

sim::Task<Result<StView>> GroupViewDb::get_view(Uid object, Uid action) {
  counters_.inc("ostdb.get_view");
  auto found = co_await lock_entry(states_, object, actions::LockMode::Read, action);
  if (!found.ok()) co_return found.error();
  co_return StView{found.value()->st, found.value()->epoch};
}

sim::Task<Status> GroupViewDb::exclude(std::vector<ExcludeItem> items, Uid action) {
  counters_.inc("ostdb.exclude");
  auto span = core::trace_span(trace_, "ostdb.exclude", node_.id(), "naming",
                               std::to_string(items.size()) + " items by " + action.to_string());
  const sim::SimTime t_batch = node_.sim().now();
  const actions::LockMode mode = policy_ == ExcludePolicy::ExcludeWriteLock
                                     ? actions::LockMode::ExcludeWrite
                                     : actions::LockMode::Write;
  for (const ExcludeItem& item : items) {
    // Sec 4.2.1: the caller usually already holds a read lock from
    // GetView; this is the promotion the exclude-write type exists for.
    auto found = co_await lock_entry(states_, item.object, mode, action);
    if (!found.ok()) co_return found.error();
    ObjectStateDb::Entry& e = *found.value();
    std::vector<NodeId> removed;
    for (NodeId host : item.nodes) {
      auto pos = std::find(e.st.begin(), e.st.end(), host);
      if (pos != e.st.end()) {
        e.st.erase(pos);
        removed.push_back(host);
      }
    }
    if (!removed.empty()) {
      counters_.inc("ostdb.excluded_nodes", removed.size());
      core::metric_gauge(metrics_, "naming.st_size", static_cast<double>(e.st.size()));
      bump_epoch(item.object, kStPart);
      for (NodeId host : removed) {
        GV_LOG(LogLevel::Debug, node_.sim().now(), "ostdb", "exclude %u from %s by %s", host,
               item.object.to_string().c_str(), action.to_string().c_str());
        core::trace_instant(trace_, "ostdb.excluded", node_.id(), "naming",
                            "node " + std::to_string(host) + " from " + item.object.to_string());
      }
      push_undo(action, item.object, kStPart, [this, object = item.object, removed, action] {
        auto eit = states_.entries.find(object);
        if (eit == states_.entries.end()) return;
        for (NodeId host : removed) {
          GV_LOG(LogLevel::Debug, node_.sim().now(), "ostdb",
                 "UNDO exclude: re-add %u to %s (action %s)", host, object.to_string().c_str(),
                 action.to_string().c_str());
          eit->second.st.push_back(host);
        }
        bump_epoch(object, kStPart);
      });
    }
  }
  core::metric_record(metrics_, "naming.exclude_batch_us",
                      static_cast<double>(node_.sim().now() - t_batch));
  span.end("ok");
  co_return ok_status();
}

sim::Task<Status> GroupViewDb::include(Uid object, NodeId host, Uid action) {
  counters_.inc("ostdb.include");
  auto found = co_await lock_entry(states_, object, actions::LockMode::Write, action);
  if (!found.ok()) co_return found.error();
  ObjectStateDb::Entry& e = *found.value();
  if (std::find(e.st.begin(), e.st.end(), host) != e.st.end()) co_return ok_status();
  GV_LOG(LogLevel::Debug, node_.sim().now(), "ostdb", "include %u into %s by %s", host,
         object.to_string().c_str(), action.to_string().c_str());
  core::trace_instant(trace_, "ostdb.included", node_.id(), "naming",
                      "node " + std::to_string(host) + " into " + object.to_string());
  e.st.push_back(host);
  core::metric_gauge(metrics_, "naming.st_size", static_cast<double>(e.st.size()));
  bump_epoch(object, kStPart);
  push_undo(action, object, kStPart, [this, object, host] {
    auto eit = states_.entries.find(object);
    if (eit == states_.entries.end()) return;
    auto& st = eit->second.st;
    st.erase(std::remove(st.begin(), st.end(), host), st.end());
    bump_epoch(object, kStPart);
  });
  co_return ok_status();
}

// ------------------------------------------------ the cache service (gvdb)

void GroupViewDb::note_invalidation(const Uid& object) {
  auto it = std::find(recent_bumps_.begin(), recent_bumps_.end(), object);
  if (it != recent_bumps_.end()) recent_bumps_.erase(it);
  recent_bumps_.push_back(object);
  if (recent_bumps_.size() > kRecentBumpCap) recent_bumps_.pop_front();
  piggyback_stale_ = true;
}

const Buffer& GroupViewDb::piggyback_blob() {
  if (!piggyback_stale_) return piggyback_;
  piggyback_stale_ = false;
  piggyback_.clear();
  if (recent_bumps_.empty()) return piggyback_;
  Piggyback p{node_.epoch(), {}};
  for (const Uid& object : recent_bumps_)
    p.bumps.push_back({object, servers_.epoch_of(object), states_.epoch_of(object)});
  piggyback_ = rpc::encode(p);
  return piggyback_;
}

Result<GetViewsReply> GroupViewDb::get_views(const std::vector<Uid>& objects) {
  counters_.inc("gvdb.get_views");
  counters_.inc("gvdb.get_views_uids", objects.size());
  GetViewsReply out{node_.epoch(), {}};
  out.views.reserve(objects.size());
  for (const Uid& object : objects) {
    ViewFill& fill = out.views.emplace_back(ViewFill{object, std::nullopt});
    auto sv = servers_.peek_view(object);
    auto st = states_.peek_view(object);
    if (sv.ok() && st.ok())
      fill.view = ObjectViews{sv->epoch, std::move(sv->sv), st->epoch, std::move(st->st)};
  }
  return out;
}

sim::Task<Result<actions::Vote>> GroupViewDb::validate(NodeId from, Uid action,
                                                       std::uint64_t incarnation,
                                                       std::vector<ValidateItem> items,
                                                       bool may_leave) {
  counters_.inc("gvdb.validate");
  // An entry epoch is only meaningful within one incarnation of this
  // node: in-memory bumps die with a crash, so a view cached against a
  // previous incarnation can never be trusted, whatever its epoch says.
  if (incarnation != node_.epoch()) {
    counters_.inc("gvdb.validate_stale_incarnation");
    co_return Err::StaleView;
  }
  note_activity(action, from);
  for (const ValidateItem& item : items) {
    Status s = co_await check_epoch(servers_, item.object, item.sv_epoch, action);
    if (!s.ok()) co_return s.error();
    s = co_await check_epoch(states_, item.object, item.st_epoch, action);
    if (!s.ok()) co_return s.error();
  }
  co_return vote(action, may_leave);
}

// --------------------------------------------------------------- RPC glue

void GroupViewDb::register_rpc(rpc::RpcEndpoint& endpoint) {
  endpoint.serve(kOsdbInsert, [this](NodeId from, Uid object, NodeId host, Uid action) {
    note_activity(action, from);
    return insert(object, host, action);
  });
  endpoint.serve(kOsdbRemove, [this](NodeId from, Uid object, NodeId host, Uid action) {
    note_activity(action, from);
    return remove(object, host, action);
  });
  // Decrement needs no action here, so it records no activity.
  endpoint.serve(kOsdbDecrement, [this](NodeId, NodeId client, std::vector<UseRelease> bindings) {
    return decrement(client, std::move(bindings));
  });
  endpoint.serve(kOsdbPurgeClient, [this](NodeId from, NodeId client, Uid action) {
    return purge_client(client, action, from);
  });
  endpoint.serve(kOstdbGetView, [this](NodeId from, Uid object, Uid action) {
    note_activity(action, from);
    return get_view(object, action);
  });
  endpoint.serve(kOstdbExclude, [this](NodeId from, std::vector<ExcludeItem> items, Uid action) {
    note_activity(action, from);
    return exclude(std::move(items), action);
  });
  endpoint.serve(kOstdbInclude, [this](NodeId from, Uid object, NodeId host, Uid action) {
    note_activity(action, from);
    return include(object, host, action);
  });
  endpoint.serve(kOsdbBindRead, [this](NodeId from, Uid object, Uid client_action) {
    return bind_read(from, object, client_action);
  });
  endpoint.serve(kOsdbBind, [this](NodeId from, Uid object, Uid client_action, Uid token,
                                   std::uint32_t want, std::vector<NodeId> avoid,
                                   std::vector<NodeId> remove, Uid release) {
    return bind(from, object, client_action, token, want, std::move(avoid), std::move(remove),
                release);
  });
  endpoint.serve(kGvdbGetViews,
                 [this](NodeId, std::vector<Uid> objects) { return get_views(objects); });
  endpoint.serve(kGvdbValidate, [this](NodeId from, Uid action, std::uint64_t incarnation,
                                       std::vector<ValidateItem> items, bool may_leave) {
    return validate(from, action, incarnation, std::move(items), may_leave);
  });
}

}  // namespace gv::naming
