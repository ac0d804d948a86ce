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
    : node_(node),
      servers_(node, store, endpoint, txns, cfg),
      states_(node, store, endpoint, txns, cfg, policy) {
  servers_.set_epoch_listener([this](const Uid& object) { note_invalidation(object); });
  states_.set_epoch_listener([this](const Uid& object) { note_invalidation(object); });
  endpoint.set_piggyback_provider([this]() -> const Buffer& { return piggyback_blob(); });
  register_rpc(endpoint);
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
  servers_.note_activity(action, from);
  states_.note_activity(action, from);
  for (const ValidateItem& item : items) {
    Status s = co_await servers_.validate_epoch(item.object, item.sv_epoch, action);
    if (!s.ok()) co_return s;
    s = co_await states_.validate_epoch(item.object, item.st_epoch, action);
    if (!s.ok()) co_return s;
  }
  co_return ok_status();
}

void GroupViewDb::register_rpc(rpc::RpcEndpoint& endpoint) {
  endpoint.serve(kGvdbGetViews,
                 [this](NodeId, std::vector<Uid> objects) { return get_views(objects); });
  endpoint.serve(kGvdbValidate, [this](NodeId from, Uid action, std::uint64_t incarnation,
                                       std::vector<ValidateItem> items) {
    return validate(from, action, incarnation, std::move(items));
  });
}

}  // namespace gv::naming
