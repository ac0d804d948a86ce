// The group view database.
//
// "The two databases have been implemented as a single Arjuna object,
// referred to as the group view database." (sec 5). GroupViewDb is that
// object: one 2PC participant ("gvdb" in its node's TxnRegistry) with one
// undo log, one lock table, one orphan sweep and one stable record per
// object. Its two tables — the Object Server table (Sv and use lists,
// naming/object_server_db.h) and the Object State table (St,
// naming/object_state_db.h) — keep the paper's operations as methods and
// their own RPC services ("osdb", "ostdb"). Each entry has two lock
// names, "sv:" and "st:", so a binder's update lock on Sv never blocks
// another client's GetView or validate of St. The paper assumes the
// naming service is always available (sec 3.1); the chaos harness
// therefore never crashes the naming node, though the database does
// persist itself and recover correctly if it happens.
//
// Calls that span both tables:
//
//   osdb.bind_read(object, client, bind, update)
//                        the binder's one naming read (figs 6-8): St(A)
//                        read-locked under the client action and Sv(A)
//                        under the bind action (write-locked for update).
//
// For the client-side group-view cache (sec 6: "caching of binding
// information") it exports a "gvdb" service:
//
//   get_views(uids...)   lock-free batched snapshot of Sv(A)+St(A) with
//                        their view epochs and this node's incarnation;
//                        one RPC fills a whole cache prefetch.
//   validate(items...)   commit-time staleness check: read-locks every
//                        named entry under the committing action and
//                        compares epochs; StaleView forces rebind.
//
// It also feeds a small ring of recently invalidated UIDs that the RPC
// layer piggybacks on every reply leaving this node, so client caches
// learn of membership changes without any additional messages.
#pragma once

#include <deque>
#include <optional>

#include "naming/object_server_db.h"
#include "naming/object_state_db.h"

namespace gv::naming {

// The database's 2PC participant name and the cache service's name.
inline constexpr const char* kGvdbService = "gvdb";
// Well-known UID naming the store table that holds the per-object
// stable records.
inline constexpr Uid kGvdbUid{0xDBull, 1};

// The binder's one naming read: Sv(A) with its use lists, and St(A).
struct BindView {
  SvView sv;
  StView st;
  GV_WIRE_FIELDS(sv, st)
};

// One object's Sv(A) and St(A) with their view epochs.
struct ObjectViews {
  std::uint64_t sv_epoch = 0;
  std::vector<NodeId> sv;
  std::uint64_t st_epoch = 0;
  std::vector<NodeId> st;
  GV_WIRE_FIELDS(sv_epoch, sv, st_epoch, st)
};

// One object's fill inside a batched get_views reply.
struct ViewFill {
  Uid object;
  std::optional<ObjectViews> view;  // empty: the object is not registered
  GV_WIRE_FIELDS(object, view)
};

struct GetViewsReply {
  std::uint64_t incarnation = 0;  // naming node incarnation at snapshot
  std::vector<ViewFill> views;
  GV_WIRE_FIELDS(incarnation, views)
};

// One object's staleness check inside a batched validate call.
struct ValidateItem {
  Uid object;
  std::uint64_t sv_epoch = 0;
  std::uint64_t st_epoch = 0;
  GV_WIRE_FIELDS(object, sv_epoch, st_epoch)
};

// The gvdb service's methods, declared once for the registration and the
// client stubs below. validate takes (action, incarnation, items).
inline constexpr rpc::Rpc<GetViewsReply(std::vector<Uid>)> kGvdbGetViews{kGvdbService,
                                                                         "get_views"};
inline constexpr rpc::Rpc<void(Uid, std::uint64_t, std::vector<ValidateItem>)> kGvdbValidate{
    kGvdbService, "validate"};
// (object, client action, bind action, for update)
inline constexpr rpc::Rpc<BindView(Uid, Uid, Uid, bool)> kOsdbBindRead{kOsdbService, "bind_read"};

class GroupViewDb final : public NamingDbBase {
 public:
  GroupViewDb(sim::Node& node, store::ObjectStore& store, rpc::RpcEndpoint& endpoint,
              actions::TxnRegistry& txns, NamingConfig cfg = {},
              ExcludePolicy policy = ExcludePolicy::ExcludeWriteLock);

  // Register a new persistent object with its server and store node sets
  // (|Sv| and |St| cardinalities select the regimes of figs 2-5).
  void create_object(const Uid& object, std::vector<NodeId> sv, std::vector<NodeId> st);

  ObjectServerDb& servers() noexcept { return servers_; }
  ObjectStateDb& states() noexcept { return states_; }
  NodeId node_id() const noexcept { return node_.id(); }

  // The binder's naming read; see the header comment.
  sim::Task<Result<BindView>> bind_read(NodeId from, Uid object, Uid client_action,
                                        Uid bind_action, bool for_update);

  // The reply-piggyback blob: current incarnation plus the current epochs
  // of recently bumped entries. Empty when nothing changed recently.
  // Built once per change (an epoch bump or a new node incarnation) and
  // shared by every reply until the next one.
  const Buffer& piggyback_blob();

 private:
  friend class ObjectServerDb;
  friend class ObjectStateDb;

  void persist(const Uid& object, EntryParts parts) override;
  void load_entries(const std::map<Uid, Buffer>& records) override;
  void note_invalidation(const Uid& object);
  void register_rpc(rpc::RpcEndpoint& endpoint);
  Result<GetViewsReply> get_views(const std::vector<Uid>& objects);
  sim::Task<Status> validate(NodeId from, Uid action, std::uint64_t incarnation,
                             std::vector<ValidateItem> items);

  ObjectServerDb servers_;
  ObjectStateDb states_;
  // Recently bumped UIDs, most recent last, deduplicated, bounded.
  std::deque<Uid> recent_bumps_;
  // piggyback_blob()'s bytes, valid while !piggyback_stale_ and the node
  // is still in incarnation piggyback_epoch_ (a recovery reloads epochs).
  Buffer piggyback_;
  bool piggyback_stale_ = true;
  std::uint64_t piggyback_epoch_ = 0;
};

// Client stubs for the calls that span both tables.
inline sim::Task<Result<GetViewsReply>> gvdb_get_views(rpc::RpcEndpoint& ep, NodeId naming_node,
                                                       std::vector<Uid> objects) {
  return ep.call(naming_node, kGvdbGetViews, objects);
}
inline sim::Task<Status> gvdb_validate(rpc::RpcEndpoint& ep, NodeId naming_node,
                                       std::uint64_t incarnation, std::vector<ValidateItem> items,
                                       Uid action) {
  return ep.call(naming_node, kGvdbValidate, action, incarnation, items);
}
inline sim::Task<Result<BindView>> osdb_bind_read(rpc::RpcEndpoint& ep, NodeId naming_node,
                                                  Uid object, Uid client_action, Uid bind_action,
                                                  bool for_update) {
  return ep.call(naming_node, kOsdbBindRead, object, client_action, bind_action, for_update);
}

}  // namespace gv::naming
