// Node recovery protocol (secs 4.1.2, 4.2).
//
// A crashed node that recovers must repair two kinds of staleness before
// rejoining the system:
//
//  Store role: "A crashed node with an object store must ensure, upon
//  recovery, that its objects do contain the latest committed states. For
//  this purpose, it can run atomic actions to update its object states
//  and then invoke the Include(..) operation for making the object states
//  available again."
//    Every locally stored object was marked SUSPECT at recovery. For each
//    one: read the current St(A) from the Object State database; if this
//    node was excluded, fetch the latest committed state from a current
//    St member, install it, and run Include. If the node is still in St,
//    compare committed versions against the other members to close the
//    window where a crash between the prepare and commit phases of a 2PC
//    left a stale state behind; refresh if behind. Only then does the
//    store serve the object again.
//
//  Server role: "If a node (δ) with a server crashes, then upon recovery
//  it executes the Insert(UID, δ) operation before it is ready to act as
//  a server node" — the write lock doubles as a quiescence check, so the
//  Insert retries while clients are using the object.
//
// One repair loop drives both roles, started by the recovery hook and by
// the view probe (DESIGN.md sec 24); each object's repair runs as its own
// top-level atomic action.
#pragma once

#include <set>

#include "actions/atomic_action.h"
#include "naming/group_view_db.h"
#include "replication/object_server.h"
#include "store/object_store.h"

namespace gv::replication {

using sim::NodeId;

class RecoveryDaemon {
 public:
  // `host` may be null (store-only nodes); when present, activation of
  // served objects is blocked across recovery until Insert re-admits the
  // node (sec 4.1.2). `log` is the node's coordinator log: it records the
  // repair actions' decisions, so a participant's orphan sweep can learn
  // that one committed.
  RecoveryDaemon(sim::Node& node, rpc::RpcEndpoint& endpoint, store::ObjectStore& store,
                 NodeId naming_node, ObjectServerHost* host = nullptr,
                 actions::CoordinatorLog* log = nullptr);

  // Declare that this node is a potential server for `object` (stable
  // configuration, set at object-creation time). Drives the Insert step.
  void add_served_object(const Uid& object) { serves_.insert(object); }

  // Partition-liveness probe (DESIGN.md sec 8 gap): a store that never
  // crashed but was partitioned away gets Excluded from St(A) by
  // committing clients, and nothing would ever re-Include it — the
  // recovery hook only fires on crash/recovery. Every kViewProbePeriod
  // the probe reads St(A) of all local, non-suspect objects in one
  // gvdb.get_views call, demotes each object whose St lacks this node to
  // SUSPECT and starts the repair loop. Like the reaper it re-arms on
  // recovery and keeps the event queue non-empty until stop_view_probe.
  static constexpr sim::SimTime kViewProbePeriod = 500 * sim::kMillisecond;
  void start_view_probe();
  void stop_view_probe() noexcept {
    if (view_probe_ != nullptr) view_probe_->running = false;
  }

  Counters& counters() noexcept { return counters_; }
  // Repair passes run as their own top-level actions; the owning System
  // attaches its recorder/registry here so they trace like client ones.
  actions::ActionRuntime& runtime() noexcept { return runtime_; }

 private:
  // Result of scanning the St members for the newest committed state.
  // `pending` is the critical bit: some reachable peer holds a shadow for
  // the object, i.e. the next version may be decided-but-not-installed
  // (2PC phase 2 in flight). Validating against committed versions in
  // that window re-admitted stale states — see the lost-update race note
  // in repair_store_object.
  struct PeerScan {
    std::uint64_t version = 0;
    NodeId node = sim::kNoNode;
    bool pending = false;
  };
  sim::Task<PeerScan> scan_peers(const Uid& object, const std::vector<NodeId>& st);

  sim::Task<> repair_loop();  // runs as repairer_
  sim::Task<> repair();       // one pass
  sim::Task<> probe_views();
  sim::Task<bool> repair_store_object(const Uid& object);
  sim::Task<bool> reinsert_server(const Uid& object);

  sim::Node& node_;
  rpc::RpcEndpoint& endpoint_;
  store::ObjectStore& store_;
  NodeId naming_node_;
  ObjectServerHost* host_;
  actions::ActionRuntime runtime_;
  std::set<Uid> serves_;     // stable config: objects this node can serve
  std::set<Uid> to_insert_;  // volatile: Inserts owed this incarnation
  sim::Node::Job& repairer_;
  sim::Node::Duty* view_probe_ = nullptr;
  Counters counters_;
};

}  // namespace gv::replication
