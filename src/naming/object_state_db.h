// The Object State table of the group view database (sec 4.2):
// UID -> St(A).
//
// Holds, per persistent object, the list of nodes whose object stores
// hold a state of the object. The table is plain state with lock-free
// queries. The paper's operations on it (GetView, Exclude, Include) are
// actions, so the GroupViewDb that owns the table runs them, under its
// locks (kStPart keys) and undo log; the "ostdb" service below is theirs.
// St has its own lock key so a binder's update lock on Sv never blocks
// another client's GetView.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "rpc/rpc.h"

namespace gv::naming {

using sim::NodeId;

inline constexpr const char* kOstdbService = "ostdb";

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

  bool known(const Uid& object) const { return entries.count(object) > 0; }

  // Direct peek for local readers: the auditor, tests and examples (no
  // lock, no action). Remote readers use the batched gvdb.get_views.
  std::vector<NodeId> peek(const Uid& object) const {
    auto it = entries.find(object);
    return it == entries.end() ? std::vector<NodeId>{} : it->second.st;
  }
  std::uint64_t epoch_of(const Uid& object) const noexcept {
    auto it = entries.find(object);
    return it == entries.end() ? 0 : it->second.epoch;
  }
  Result<StView> peek_view(const Uid& object) const {
    auto it = entries.find(object);
    if (it == entries.end()) return Err::NotFound;
    return StView{it->second.st, it->second.epoch};
  }

  // Hashed: found by UID on every operation. A walk whose order could
  // reach the event stream sorts what it collects.
  std::unordered_map<Uid, Entry> entries;
};

// The ostdb service's methods, declared once for the registration and the
// client stubs below, which give each argument's meaning.
inline constexpr rpc::Rpc<StView(Uid, Uid)> kOstdbGetView{kOstdbService, "get_view"};
inline constexpr rpc::Rpc<void(std::vector<ExcludeItem>, Uid)> kOstdbExclude{kOstdbService,
                                                                             "exclude"};
inline constexpr rpc::Rpc<void(Uid, NodeId, Uid)> kOstdbInclude{kOstdbService, "include"};

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

}  // namespace gv::naming
