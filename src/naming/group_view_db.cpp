#include "naming/group_view_db.h"

#include <algorithm>

namespace gv::naming {

namespace {
// Ring capacity: enough to cover the membership churn a client can miss
// between two of its own naming interactions; larger rings only pad every
// reply leaving the naming node.
constexpr std::size_t kRecentBumpCap = 8;
}  // namespace

GroupViewDb::GroupViewDb(sim::Node& node, store::ObjectStore& store, rpc::RpcEndpoint& endpoint,
                         actions::TxnRegistry& txns, NamingConfig cfg, ExcludePolicy policy)
    : NamingDbBase(node, store, endpoint, kGvdbUid, cfg), servers_(*this), states_(*this, policy) {
  txns.add(kGvdbService, this);
  endpoint.set_piggyback_provider([this]() -> const Buffer& { return piggyback_blob(); });
  register_rpc(endpoint);
}

void GroupViewDb::create_object(const Uid& object, std::vector<NodeId> sv,
                                std::vector<NodeId> st) {
  servers_.entries_[object] = ObjectServerDb::Entry{std::move(sv), {}, 1};
  states_.entries_[object] = ObjectStateDb::Entry{std::move(st), 1};
  persist(object, kSvPart | kStPart);  // registration must survive a naming-node crash
  piggyback_stale_ = true;             // a re-created entry restarts its epochs
}

void GroupViewDb::persist(const Uid& object, EntryParts parts) {
  // One record per object: the Sv part, then the St part. A part the
  // caller did not edit comes from memory unless another action holds
  // its lock for update: then memory may hold that action's uncommitted
  // edit, and the part comes from the stable record.
  const bool sv_now = (parts & kSvPart) != 0 ||
                      !locks_.held_for_update(ObjectServerDb::lock_name(object));
  const bool st_now = (parts & kStPart) != 0 ||
                      !locks_.held_for_update(ObjectStateDb::lock_name(object));
  ObjectServerDb::Entry sv;
  ObjectStateDb::Entry st;
  if (!sv_now || !st_now) {
    Buffer old = store_.records(db_uid_).at(object);
    (void)rpc::decode(old, sv, st);
  }
  store_.put_record(db_uid_, object, rpc::encode(sv_now ? servers_.entries_.at(object) : sv,
                                                 st_now ? states_.entries_.at(object) : st));
}

void GroupViewDb::load_entries(const std::map<Uid, Buffer>& records) {
  servers_.entries_.clear();
  states_.entries_.clear();
  for (const auto& [object, bytes] : records) {
    Buffer b = bytes;
    ObjectServerDb::Entry sv;
    ObjectStateDb::Entry st;
    if (!rpc::decode(b, sv, st)) continue;
    servers_.entries_[object] = std::move(sv);
    states_.entries_[object] = std::move(st);
  }
}

sim::Task<Result<BindView>> GroupViewDb::bind_read(NodeId from, Uid object, Uid client_action,
                                                   Uid bind_action, bool for_update) {
  counters_.inc("gvdb.bind_read");
  note_activity(client_action, from);
  if (bind_action != client_action) note_activity(bind_action, from);
  // St first: a client action's read lock on St waits only for an
  // Include, never for a binder.
  auto st = co_await states_.get_view(object, client_action);
  if (!st.ok()) co_return st.error();
  auto sv = co_await servers_.get_server(object, bind_action, for_update);
  if (!sv.ok()) co_return sv.error();
  co_return BindView{std::move(sv).value(), std::move(st).value()};
}

void GroupViewDb::note_invalidation(const Uid& object) {
  auto it = std::find(recent_bumps_.begin(), recent_bumps_.end(), object);
  if (it != recent_bumps_.end()) recent_bumps_.erase(it);
  recent_bumps_.push_back(object);
  if (recent_bumps_.size() > kRecentBumpCap) recent_bumps_.pop_front();
  piggyback_stale_ = true;
}

const Buffer& GroupViewDb::piggyback_blob() {
  if (!piggyback_stale_ && piggyback_epoch_ == node_.epoch()) return piggyback_;
  piggyback_stale_ = false;
  piggyback_epoch_ = node_.epoch();
  piggyback_.clear();
  if (recent_bumps_.empty()) return piggyback_;
  piggyback_.reserve(8 + 1 + recent_bumps_.size() * (16 + 8 + 8));
  piggyback_.pack_u64(node_.epoch());
  piggyback_.pack_u8(static_cast<std::uint8_t>(recent_bumps_.size()));
  for (const Uid& object : recent_bumps_) {
    piggyback_.pack_uid(object);
    piggyback_.pack_u64(servers_.epoch_of(object));
    piggyback_.pack_u64(states_.epoch_of(object));
  }
  return piggyback_;
}

// ---------------------------------------------------------------- RPC glue

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

sim::Task<Status> GroupViewDb::validate(NodeId from, Uid action, std::uint64_t incarnation,
                                        std::vector<ValidateItem> items) {
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
    Status s = co_await servers_.validate_epoch(item.object, item.sv_epoch, action);
    if (!s.ok()) co_return s;
    s = co_await states_.validate_epoch(item.object, item.st_epoch, action);
    if (!s.ok()) co_return s;
  }
  co_return ok_status();
}

void GroupViewDb::register_rpc(rpc::RpcEndpoint& endpoint) {
  servers_.register_rpc(endpoint);
  states_.register_rpc(endpoint);
  endpoint.serve(kOsdbBindRead, [this](NodeId from, Uid object, Uid client_action,
                                       Uid bind_action, bool for_update) {
    return bind_read(from, object, client_action, bind_action, for_update);
  });
  endpoint.serve(kGvdbGetViews,
                 [this](NodeId, std::vector<Uid> objects) { return get_views(objects); });
  endpoint.serve(kGvdbValidate, [this](NodeId from, Uid action, std::uint64_t incarnation,
                                       std::vector<ValidateItem> items) {
    return validate(from, action, incarnation, std::move(items));
  });
}

}  // namespace gv::naming
