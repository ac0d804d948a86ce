// ReplicaSystem: the composition root and public entry point.
//
// Builds the whole simulated distributed system — cluster, network, RPC
// fabric, object stores, object server hosts, the group view (naming)
// database, janitor and recovery daemons — and exposes the object
// life-cycle API a downstream application uses:
//
//   ReplicaSystem sys{config};
//   Uid acct = sys.define_object("acct-A", "bank", initial, {2,3,4}, {2,3,4},
//                                ReplicationPolicy::Active, 3);
//   auto client = sys.client(1);
//   sys.sim().spawn([&]() -> sim::Task<> {
//     auto txn = client->begin();
//     co_await txn->invoke(acct, "deposit", args, LockMode::Write);
//     co_await txn->commit();
//   }());
//   sys.sim().run();
//
// Node 0 is by convention the naming node (the paper assumes the naming
// service is always available; keep node 0 out of any crash schedule
// unless you are specifically testing naming-database recovery).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "actions/coordinator_log.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "core/transaction.h"
#include "naming/group_view_db.h"
#include "naming/janitor.h"
#include "replication/activator.h"
#include "replication/commit_processor.h"
#include "replication/object_server.h"
#include "replication/recovery.h"
#include "replication/state_machine.h"
#include "rpc/group_comm.h"
#include "rpc/rpc.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "store/object_store.h"

namespace gv::core {

using replication::ObjectSpec;
using replication::ReplicationPolicy;
using sim::NodeId;

struct SystemConfig {
  std::size_t nodes = 8;
  std::uint64_t seed = 1;
  sim::NetConfig net;
  rpc::RpcConfig rpc;
  naming::NamingConfig naming;
  naming::Scheme scheme = naming::Scheme::IndependentTopLevel;
  // Sec 6: client-side caching of group views with commit-time epoch
  // validation. Off by default (the paper's S1-S3 run uncached). When on,
  // every node gets a GroupViewCache: binds hit it instead of the naming
  // databases, staleness is caught by one batched gvdb.validate per
  // commit, and invalidations ride the reply piggyback.
  bool view_cache = false;
  // The janitor's periodic loop (every 100 ms) keeps the event queue
  // non-empty; leave it off unless the workload needs crashed-client
  // cleanup, and drive the simulation with run_until() (or
  // janitor().stop() before run()).
  bool start_janitor = false;
  // Periodic loops below follow the same rule: off by default so plain
  // run() drains; enable for chaos workloads driven with run_until().
  // Orphan-shadow reaper on every store, every 500 ms (asks an aged
  // shadow's coordinator for the outcome its phase 2 never brought).
  bool start_store_reaper = false;
  // Partition-heal view probe on every store node, every 500 ms: drives
  // re-Include of a store Excluded from an St while it stayed up (no
  // crash, so the recovery hook never fired) once the partition heals.
  bool start_view_probe = false;
  // Causal tracing (core/trace.h). Off by default; the TraceContext is
  // propagated either way, so flipping this cannot change event order —
  // only whether spans are recorded. `trace_ring` bounds memory: the
  // oldest events are evicted (and counted) past that many.
  bool tracing = false;
  std::size_t trace_ring = TraceRecorder::kDefaultCapacity;
};

class ReplicaSystem {
 public:
  explicit ReplicaSystem(SystemConfig cfg = {});

  // ---- infrastructure access -------------------------------------------
  sim::Simulator& sim() noexcept { return sim_; }
  sim::Cluster& cluster() noexcept { return cluster_; }
  sim::Network& net() noexcept { return net_; }
  rpc::GroupComm& gc() noexcept { return gc_; }
  rpc::RpcEndpoint& endpoint(NodeId id) { return fabric_->endpoint(id); }
  naming::GroupViewDb& gvdb() noexcept { return *gvdb_; }
  // The per-node group-view cache; nullptr when cfg.view_cache is off.
  naming::GroupViewCache* view_cache_at(NodeId id) {
    return caches_.empty() ? nullptr : caches_.at(id).get();
  }
  store::ObjectStore& store_at(NodeId id) { return *stores_.at(id); }
  replication::ObjectServerHost& host_at(NodeId id) { return *hosts_.at(id); }
  replication::RecoveryDaemon& recovery_at(NodeId id) { return *recovery_.at(id); }
  actions::CoordinatorLog& coordinator_log_at(NodeId id) { return *coord_logs_.at(id); }
  replication::ClassRegistry& classes() noexcept { return classes_; }
  naming::UseListJanitor& janitor() noexcept { return *janitor_; }
  NodeId naming_node() const noexcept { return 0; }
  const SystemConfig& config() const noexcept { return cfg_; }

  // ---- observability -----------------------------------------------------
  TraceRecorder& trace() noexcept { return trace_; }
  const TraceRecorder& trace() const noexcept { return trace_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }

  // ---- object life cycle -------------------------------------------------
  // Define a persistent object: writes its initial state (version 1) to
  // every store in `st`, registers it with the group view database, and
  // records the server manifest for recovery. Synchronous setup-time API
  // (the simulated "installation" of the application).
  Uid define_object(const std::string& name, const std::string& class_name, Buffer initial_state,
                    std::vector<NodeId> sv, std::vector<NodeId> st, ReplicationPolicy policy,
                    std::size_t servers_wanted);

  // User-level name -> UID mapping (the naming half of "naming and
  // binding": a simple committed map, looked up before binding).
  Result<Uid> resolve(const std::string& name) const;
  Result<ObjectSpec> spec_of(const Uid& uid) const;

  // ---- clients -----------------------------------------------------------
  // A client session on `node` using the system-configured scheme (or an
  // override). Sessions are long-lived; transactions are created from
  // them.
  ClientSession* client(NodeId node);
  ClientSession* client(NodeId node, naming::Scheme scheme);

  // Aggregate counters across all components (for experiment reports).
  Counters aggregate_counters() const;

 private:
  SystemConfig cfg_;
  sim::Simulator sim_;
  TraceRecorder trace_{sim_};
  MetricsRegistry metrics_;
  sim::Cluster cluster_;
  sim::Network net_;
  rpc::GroupComm gc_;
  std::unique_ptr<rpc::RpcFabric> fabric_;
  replication::ClassRegistry classes_;
  std::vector<std::unique_ptr<actions::TxnRegistry>> txns_;
  std::vector<std::unique_ptr<actions::CoordinatorLog>> coord_logs_;
  std::vector<std::unique_ptr<store::ObjectStore>> stores_;
  std::vector<std::unique_ptr<store::StoreTxnParticipant>> store_parts_;
  std::vector<std::unique_ptr<replication::ObjectServerHost>> hosts_;
  std::vector<std::unique_ptr<replication::RecoveryDaemon>> recovery_;
  std::unique_ptr<naming::GroupViewDb> gvdb_;
  std::unique_ptr<naming::UseListJanitor> janitor_;
  std::vector<std::unique_ptr<naming::GroupViewCache>> caches_;  // empty unless view_cache

  std::unordered_map<std::string, Uid> names_;
  std::unordered_map<Uid, ObjectSpec> specs_;
  UidGenerator uids_{0x0B7EC7};

  std::vector<std::unique_ptr<ClientSession>> sessions_;
};

}  // namespace gv::core
