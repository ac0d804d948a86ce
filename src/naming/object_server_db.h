// The Object Server table of the group view database (sec 4.1):
// UID -> Sv(A) plus use lists.
//
// Holds, per persistent object, the list of nodes capable of running a
// server for it, and — for the enhanced schemes of sec 4.1.3 — a use
// list per server node of the form <client-node, count> recording which
// clients are currently bound through that server. Each count is kept as
// the set of the client's live bindings, each named by its bind token
// (the UID of the binder action that made it), so a resent bind or
// Decrement is harmless and an undo restores exactly what it removed.
//
// The table is plain state with lock-free queries. The paper's operations
// on it (GetServer, Insert, Remove, Increment, Decrement, PurgeClient) are
// actions, so the GroupViewDb that owns the table runs them, under its
// locks (kSvPart keys) and undo log; the "osdb" service below is theirs.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "rpc/rpc.h"

namespace gv::naming {

using sim::NodeId;

inline constexpr const char* kOsdbService = "osdb";

// One client's presence on one server node's use list: `count` is the
// number of its live bindings through that server.
struct UseEntry {
  NodeId server = 0;
  NodeId client = 0;
  std::uint32_t count = 0;
  GV_WIRE_FIELDS(server, client, count)
};

struct SvView {
  std::vector<NodeId> sv;
  std::vector<UseEntry> use;  // empty entries elided
  // Monotonic per-UID view epoch (sec 6: binding information can be
  // cached by clients provided staleness is detected before commit).
  // Bumped on every membership mutation — Insert, Remove — AND on the
  // rollback of one, so a dirty read that later aborts still invalidates.
  std::uint64_t epoch = 0;

  GV_WIRE_FIELDS(epoch, sv, use)
};

// One binding to drop in a batched Decrement: the servers it was made
// through (none: wherever it is) and its bind token.
struct UseRelease {
  Uid object;
  std::vector<NodeId> servers;
  Uid token;
  GV_WIRE_FIELDS(object, servers, token)
};

class ObjectServerDb {
 public:
  // The tokens of one client's live bindings through one server.
  using Tokens = std::vector<Uid>;

  struct Entry {  // also the Sv part of the entry's stable record
    std::vector<NodeId> sv;
    // server node -> (client node -> tokens)
    std::map<NodeId, std::map<NodeId, Tokens>> use;
    std::uint64_t epoch = 1;
    GV_WIRE_FIELDS(epoch, sv, use)
  };

  bool known(const Uid& object) const { return entries.count(object) > 0; }
  std::uint64_t epoch_of(const Uid& object) const noexcept;
  Result<SvView> peek_view(const Uid& object) const;
  // All client nodes appearing in any use list (janitor scan), in the
  // order a walk of the entries in UID order first meets them.
  std::vector<NodeId> clients_in_use() const;

  static SvView view_of(const Entry& e);

  // Hashed: found by UID on every operation. A walk whose order could
  // reach the event stream sorts what it collects.
  std::unordered_map<Uid, Entry> entries;
};

// The osdb service's methods, declared once for the registration and the
// client stubs below, which give each argument's meaning.
inline constexpr rpc::Rpc<void(Uid, NodeId, Uid)> kOsdbInsert{kOsdbService, "insert"};
inline constexpr rpc::Rpc<void(Uid, NodeId, Uid)> kOsdbRemove{kOsdbService, "remove"};
inline constexpr rpc::Rpc<void(NodeId, std::vector<UseRelease>)> kOsdbDecrement{kOsdbService,
                                                                                "decrement"};
// (client, action) -> bindings purged
inline constexpr rpc::Rpc<std::uint32_t(NodeId, Uid)> kOsdbPurgeClient{kOsdbService,
                                                                       "purge_client"};

// ------------------------------------------------------- client stubs
// Thin client-side wrappers used by the binder strategies.

inline sim::Task<Status> osdb_insert(rpc::RpcEndpoint& ep, NodeId naming_node, Uid object,
                                     NodeId host, Uid action) {
  return ep.call(naming_node, kOsdbInsert, object, host, action);
}
inline sim::Task<Status> osdb_remove(rpc::RpcEndpoint& ep, NodeId naming_node, Uid object,
                                     NodeId host, Uid action) {
  return ep.call(naming_node, kOsdbRemove, object, host, action);
}
inline sim::Task<Status> osdb_decrement(rpc::RpcEndpoint& ep, NodeId naming_node, NodeId client,
                                        std::vector<UseRelease> bindings) {
  return ep.call(naming_node, kOsdbDecrement, client, bindings);
}

}  // namespace gv::naming
