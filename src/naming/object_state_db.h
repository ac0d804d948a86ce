// The Object State table of the group view database (sec 4.2):
// UID -> St(A).
//
// Maintains, per persistent object, the list of nodes whose object
// stores hold a state of the object. Exported operations:
//
//   GetView(A)                         read; returns St(A)
//   Exclude(<A1,nodes1>, <A2,nodes2>…) batch removal of failed stores
//   Include(A, host)                   re-admission after recovery
//
// Exclude is the paper's subtle case (sec 4.2.1): it happens during
// commit processing while the committing client's server typically holds
// only a READ lock on the entry — and other clients may share that read
// lock. The database therefore supports two exclusion policies:
//
//   PromoteToWrite   — the classic scheme: promote read -> write; refused
//                      whenever the entry is shared (the client aborts);
//   ExcludeWriteLock — the paper's fix: promote to the type-specific
//                      EXCLUDE-WRITE lock, compatible with readers.
//
// The ablation benchmark bench_ablation_exclude_lock measures the abort
// rate difference between the two.
//
// The table is not a participant of its own: its entries, locks ("st:"
// names) and undo records belong to the GroupViewDb that owns it. St has
// its own lock name so a binder's update lock on Sv never blocks another
// client's GetView.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "naming/db_base.h"
#include "rpc/rpc.h"

namespace gv::naming {

class GroupViewDb;

inline constexpr const char* kOstdbService = "ostdb";
// This table's part of an entry (its lock, undo records and record part).
inline constexpr EntryParts kStPart = 2;

enum class ExcludePolicy { ExcludeWriteLock, PromoteToWrite };

// One object's exclusion request inside a batched Exclude call.
struct ExcludeItem {
  Uid object;
  std::vector<NodeId> nodes;
  GV_WIRE_FIELDS(object, nodes)
};

// St(A) plus its monotonic view epoch (mirrors SvView.epoch: bumped on
// Exclude/Include and on the rollback of either, never reused).
struct StView {
  std::vector<NodeId> st;
  std::uint64_t epoch = 0;
  GV_WIRE_FIELDS(epoch, st)
};

class ObjectStateDb {
 public:
  struct Entry {  // also the St part of the entry's stable record
    std::vector<NodeId> st;
    std::uint64_t epoch = 1;
    GV_WIRE_FIELDS(epoch, st)
  };

  ObjectStateDb(GroupViewDb& db, ExcludePolicy policy);

  bool known(const Uid& object) const { return entries_.count(object) > 0; }

  sim::Task<Result<StView>> get_view(Uid object, Uid action);
  sim::Task<Status> exclude(std::vector<ExcludeItem> items, Uid action);
  sim::Task<Status> include(Uid object, NodeId host, Uid action);

  // Direct peek for recovery daemons / assertions (no lock, no action).
  // Also exported as the lock-free "peek" RPC so a store partitioned away
  // (excluded while alive) can notice its own absence from St after the
  // partition heals and trigger re-Include without a crash/recovery cycle.
  std::vector<NodeId> peek(const Uid& object) const;

  ExcludePolicy policy() const noexcept { return policy_; }
  void set_policy(ExcludePolicy p) noexcept { policy_ = p; }

  // ---- view-epoch support (GroupViewCache) -----------------------------
  std::uint64_t epoch_of(const Uid& object) const noexcept;
  Result<StView> peek_view(const Uid& object) const;
  // Read-lock the entry under `action`, then compare epochs. Ok = the
  // cached view is still current and pinned until the action ends;
  // StaleView = the caller must invalidate and rebind.
  sim::Task<Status> validate_epoch(Uid object, std::uint64_t epoch, Uid action);

  static std::string lock_name(const Uid& object) { return "st:" + object.to_string(); }

 private:
  friend class GroupViewDb;

  void bump_epoch(const Uid& object);
  void register_rpc(rpc::RpcEndpoint& endpoint);

  GroupViewDb& db_;
  std::map<Uid, Entry> entries_;
  ExcludePolicy policy_;
};

// The ostdb service's methods, declared once for the registration and the
// client stubs below, which give each argument's meaning.
inline constexpr rpc::Rpc<StView(Uid, Uid)> kOstdbGetView{kOstdbService, "get_view"};
inline constexpr rpc::Rpc<void(std::vector<ExcludeItem>, Uid)> kOstdbExclude{kOstdbService,
                                                                             "exclude"};
inline constexpr rpc::Rpc<void(Uid, NodeId, Uid)> kOstdbInclude{kOstdbService, "include"};
inline constexpr rpc::Rpc<std::vector<NodeId>(Uid)> kOstdbPeek{kOstdbService, "peek"};

// Client stubs.
inline sim::Task<Result<StView>> ostdb_get_view(rpc::RpcEndpoint& ep, NodeId naming_node,
                                                Uid object, Uid action) {
  return ep.call(naming_node, kOstdbGetView, object, action);
}
inline sim::Task<Status> ostdb_exclude(rpc::RpcEndpoint& ep, NodeId naming_node,
                                       std::vector<ExcludeItem> items, Uid action) {
  return ep.call(naming_node, kOstdbExclude, items, action);
}
inline sim::Task<Status> ostdb_include(rpc::RpcEndpoint& ep, NodeId naming_node, Uid object,
                                       NodeId host, Uid action) {
  return ep.call(naming_node, kOstdbInclude, object, host, action);
}
// Lock-free St(A) snapshot (no action, no lock): advisory only — may be
// stale the instant it returns. Used by the partition-heal view probe.
inline sim::Task<Result<std::vector<NodeId>>> ostdb_peek(rpc::RpcEndpoint& ep,
                                                         NodeId naming_node, Uid object) {
  return ep.call(naming_node, kOstdbPeek, object);
}

}  // namespace gv::naming
