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

sim::Task<Result<Buffer>> GroupViewDb::handle_get_views(Buffer args) {
  auto objects = args.unpack_uid_vector();
  if (!objects.ok()) co_return Err::BadRequest;
  counters_.inc("gvdb.get_views");
  counters_.inc("gvdb.get_views_uids", objects.value().size());
  Buffer out;
  out.pack_u64(node_.epoch());
  out.pack_u32(static_cast<std::uint32_t>(objects.value().size()));
  for (const Uid& object : objects.value()) {
    out.pack_uid(object);
    auto sv = servers_.peek_view(object);
    auto st = states_.peek_view(object);
    const bool found = sv.ok() && st.ok();
    out.pack_bool(found);
    if (!found) continue;
    out.pack_u64(sv.value().epoch);
    out.pack_u32_vector(
        std::vector<std::uint32_t>(sv.value().sv.begin(), sv.value().sv.end()));
    out.pack_u64(st.value().epoch);
    out.pack_u32_vector(
        std::vector<std::uint32_t>(st.value().st.begin(), st.value().st.end()));
  }
  co_return out;
}

sim::Task<Result<Buffer>> GroupViewDb::handle_validate(NodeId from, Buffer args) {
  auto action = args.unpack_uid();
  auto incarnation = args.unpack_u64();
  auto n = args.unpack_u32();
  if (!action.ok() || !incarnation.ok() || !n.ok()) co_return Err::BadRequest;
  counters_.inc("gvdb.validate");
  // An entry epoch is only meaningful within one incarnation of this
  // node: in-memory bumps die with a crash, so a view cached against a
  // previous incarnation can never be trusted, whatever its epoch says.
  if (incarnation.value() != node_.epoch()) {
    counters_.inc("gvdb.validate_stale_incarnation");
    co_return Err::StaleView;
  }
  servers_.note_activity(action.value(), from);
  states_.note_activity(action.value(), from);
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto object = args.unpack_uid();
    auto sv_epoch = args.unpack_u64();
    auto st_epoch = args.unpack_u64();
    if (!object.ok() || !sv_epoch.ok() || !st_epoch.ok()) co_return Err::BadRequest;
    Status s = co_await servers_.validate_epoch(object.value(), sv_epoch.value(), action.value());
    if (!s.ok()) co_return s.error();
    s = co_await states_.validate_epoch(object.value(), st_epoch.value(), action.value());
    if (!s.ok()) co_return s.error();
  }
  co_return Buffer{};
}

void GroupViewDb::register_rpc(rpc::RpcEndpoint& endpoint) {
  endpoint.register_method(kGvdbService, "get_views",
                           [this](NodeId, Buffer args) -> sim::Task<Result<Buffer>> {
                             return handle_get_views(std::move(args));
                           });
  endpoint.register_method(kGvdbService, "validate",
                           [this](NodeId from, Buffer args) -> sim::Task<Result<Buffer>> {
                             return handle_validate(from, std::move(args));
                           });
}

// ------------------------------------------------------------ client stubs

sim::Task<Result<GetViewsReply>> gvdb_get_views(rpc::RpcEndpoint& ep, NodeId naming_node,
                                                std::vector<Uid> objects) {
  Buffer args;
  args.pack_uid_vector(objects);
  auto r = co_await ep.call(naming_node, kGvdbService, "get_views", std::move(args));
  if (!r.ok()) co_return r.error();
  Buffer& reply = r.value();
  auto incarnation = reply.unpack_u64();
  auto n = reply.unpack_u32();
  if (!incarnation.ok() || !n.ok()) co_return Err::BadRequest;
  GetViewsReply out;
  out.incarnation = incarnation.value();
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    ViewFill fill;
    auto object = reply.unpack_uid();
    auto found = reply.unpack_bool();
    if (!object.ok() || !found.ok()) co_return Err::BadRequest;
    fill.object = object.value();
    fill.found = found.value();
    if (fill.found) {
      auto sv_epoch = reply.unpack_u64();
      auto sv = reply.unpack_u32_vector();
      auto st_epoch = reply.unpack_u64();
      auto st = reply.unpack_u32_vector();
      if (!sv_epoch.ok() || !sv.ok() || !st_epoch.ok() || !st.ok()) co_return Err::BadRequest;
      fill.sv_epoch = sv_epoch.value();
      fill.sv.assign(sv.value().begin(), sv.value().end());
      fill.st_epoch = st_epoch.value();
      fill.st.assign(st.value().begin(), st.value().end());
    }
    out.views.push_back(std::move(fill));
  }
  co_return out;
}

sim::Task<Status> gvdb_validate(rpc::RpcEndpoint& ep, NodeId naming_node,
                                std::uint64_t incarnation, std::vector<ValidateItem> items,
                                Uid action) {
  Buffer args;
  args.reserve(16 + 8 + 4 + items.size() * (16 + 8 + 8));
  args.pack_uid(action);
  args.pack_u64(incarnation);
  args.pack_u32(static_cast<std::uint32_t>(items.size()));
  for (const ValidateItem& item : items) {
    args.pack_uid(item.object);
    args.pack_u64(item.sv_epoch);
    args.pack_u64(item.st_epoch);
  }
  auto r = co_await ep.call(naming_node, kGvdbService, "validate", std::move(args));
  if (!r.ok()) co_return r.error();
  co_return ok_status();
}

}  // namespace gv::naming
