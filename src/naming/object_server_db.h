// The Object Server table of the group view database (sec 4.1):
// UID -> Sv(A) plus use lists.
//
// Maintains, per persistent object, the list of nodes capable of running
// a server for it, and — for the enhanced schemes of sec 4.1.3 — a use
// list per server node of the form <client-node, count> recording which
// clients are currently bound through that server. Each count is kept as
// the set of the client's live bindings, each named by its bind token
// (the UID of the binder action that made it), so a resent Increment or
// Decrement is harmless and an undo restores exactly what it removed.
//
// Exported operations (sec 4.1 / 4.1.3):
//   GetServer(A)                      read;  returns Sv(A) (+ use counts)
//   Insert(A, host)                   write; doubles as quiescence check
//   Remove(A, host)                   write
//   Increment(client, A, hosts, tok)  write; records binding `tok` and
//                                     commits the bind action `tok` here
//   Decrement(client, bindings)       write; drops every named binding,
//                                     as local actions of its own
//
// Every other operation names the atomic action it runs under; locks are
// owned by that action and held until it ends (or are inherited by its
// parent if it is nested). This is what makes scheme S1 (fig 6) hold the
// read lock for the whole client action while S2/S3 (figs 7, 8) — which
// pass a short independent top-level action — release it immediately.
// That binder action has the group view database as its only
// participant, so it ends with one call: its Increment commits it
// (DESIGN.md §15). The binder reads Sv together with St in one call,
// GroupViewDb::bind_read.
//
// The table is not a participant of its own: its entries, locks ("sv:"
// names) and undo records belong to the GroupViewDb that owns it.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "naming/db_base.h"
#include "rpc/rpc.h"

namespace gv::naming {

class GroupViewDb;

inline constexpr const char* kOsdbService = "osdb";
// This table's part of an entry (its lock, undo records and record part).
inline constexpr EntryParts kSvPart = 1;

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

  bool quiescent() const noexcept { return use.empty(); }
  bool in_use(NodeId server) const noexcept {
    for (const auto& u : use)
      if (u.server == server && u.count > 0) return true;
    return false;
  }
};

// One binding to drop in a batched Decrement: the servers it was made
// through and its bind token.
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

  explicit ObjectServerDb(GroupViewDb& db);

  bool known(const Uid& object) const { return entries_.count(object) > 0; }

  // ---- the paper's operations (local API; RPC glue mirrors these) ------
  // `for_update` acquires the entry's update lock instead of a read lock:
  // the enhanced schemes (figs 7/8) always follow GetServer with
  // Increment/Remove, and taking the update lock up front avoids the
  // promotion deadlock two concurrent binders would otherwise create
  // (both sharing read locks, both refused promotion). The update lock
  // is EXCLUDE-WRITE, as for Exclude (sec 4.2.1): exclusive among
  // updaters, but compatible with readers, so a binder never blocks a
  // validate; its Remove still promotes to WRITE.
  sim::Task<Result<SvView>> get_server(Uid object, Uid action, bool for_update = false);
  sim::Task<Status> insert(Uid object, NodeId host, Uid action);
  sim::Task<Status> remove(Uid object, NodeId host, Uid action);
  // Increment: record binding `token` for `client` on every host's use
  // list, then commit the bind action `token` here, together with any
  // Removes it made: the binder's action ends in this call. The action
  // must still hold the entry's update lock (GetServer for update); one
  // this incarnation no longer holds — aborted, swept as an orphan, lost
  // in a crash — is refused with Aborted and nothing changes. A resend
  // whose token is already recorded answers OK.
  Status increment(Uid object, NodeId client, std::vector<NodeId> hosts, Uid token);
  // Decrement: drop each named binding of `client` from its use lists
  // and persist the entry, under a local action of its own (no client
  // action). A token that is absent, or an unknown object, is skipped. If
  // a bind action is still live here it is rolled back first, so its late
  // Increment is refused.
  sim::Task<Status> decrement(NodeId client, std::vector<UseRelease> bindings);

  // Cleanup hook for the janitor (sec 4.1.3: "failure detection and
  // cleanup protocols will be required"): drop every use-list entry of a
  // crashed client, across all objects. Runs under `action`; returns the
  // number of bindings dropped.
  sim::Task<Result<std::uint32_t>> purge_client(NodeId client, Uid action);

  // All client nodes appearing in any use list (janitor scan).
  std::vector<NodeId> clients_in_use() const;

  // ---- view-epoch support (GroupViewCache) -----------------------------
  // Lock-free peeks used by the batched gvdb fill/validate paths; cache
  // correctness does not rest on them (the commit-time validate takes the
  // entry read lock before comparing epochs).
  std::uint64_t epoch_of(const Uid& object) const noexcept;
  Result<SvView> peek_view(const Uid& object) const;
  // Read-lock the entry under `action` and compare the caller's cached
  // epoch against the current one. Ok = still current (and the lock now
  // pins it until the action ends); StaleView = caller must rebind.
  sim::Task<Status> validate_epoch(Uid object, std::uint64_t epoch, Uid action);

  static std::string lock_name(const Uid& object) { return "sv:" + object.to_string(); }

 private:
  friend class GroupViewDb;

  SvView view_of(const Entry& e) const;
  static Tokens* slot(Entry& e, NodeId server, NodeId client);  // nullptr if none
  static std::uint64_t use_count(const Entry& e);                // live bindings, all slots
  void bump_epoch(const Uid& object);
  void register_rpc(rpc::RpcEndpoint& endpoint);

  GroupViewDb& db_;
  std::map<Uid, Entry> entries_;
  // Owners of the locks Decrement takes, one fresh UID per binding.
  UidGenerator local_actions_;
};

// The osdb service's methods, declared once for the registration and the
// client stubs below, which give each argument's meaning.
inline constexpr rpc::Rpc<void(Uid, NodeId, Uid)> kOsdbInsert{kOsdbService, "insert"};
inline constexpr rpc::Rpc<void(Uid, NodeId, Uid)> kOsdbRemove{kOsdbService, "remove"};
inline constexpr rpc::Rpc<void(Uid, NodeId, std::vector<NodeId>, Uid)> kOsdbIncrement{
    kOsdbService, "increment"};
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
inline sim::Task<Status> osdb_increment(rpc::RpcEndpoint& ep, NodeId naming_node, Uid object,
                                        NodeId client, std::vector<NodeId> hosts, Uid token) {
  return ep.call(naming_node, kOsdbIncrement, object, client, hosts, token);
}
inline sim::Task<Status> osdb_decrement(rpc::RpcEndpoint& ep, NodeId naming_node, NodeId client,
                                        std::vector<UseRelease> bindings) {
  return ep.call(naming_node, kOsdbDecrement, client, bindings);
}

}  // namespace gv::naming
