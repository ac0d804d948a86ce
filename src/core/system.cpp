#include "core/system.h"

namespace gv::core {

ReplicaSystem::ReplicaSystem(SystemConfig cfg)
    : cfg_(cfg),
      sim_(cfg.seed),
      cluster_(sim_),
      net_(sim_, cluster_, cfg.net),
      gc_(sim_, cluster_, net_) {
  cluster_.add_nodes(cfg_.nodes);
  if (cfg_.tracing) trace_.enable(cfg_.trace_ring);
  fabric_ = std::make_unique<rpc::RpcFabric>(cluster_, net_, cfg_.rpc);
  fabric_->set_obs(&trace_, &metrics_);
  replication::register_stock_classes(classes_);

  for (NodeId id = 0; id < cfg_.nodes; ++id) {
    txns_.push_back(std::make_unique<actions::TxnRegistry>(fabric_->endpoint(id)));
    coord_logs_.push_back(std::make_unique<actions::CoordinatorLog>(fabric_->endpoint(id)));
    stores_.push_back(std::make_unique<store::ObjectStore>(cluster_.node(id),
                                                           fabric_->endpoint(id)));
    store_parts_.push_back(std::make_unique<store::StoreTxnParticipant>(*stores_.back()));
    txns_.back()->add(store::kStoreService, store_parts_.back().get());
    hosts_.push_back(std::make_unique<replication::ObjectServerHost>(
        cluster_.node(id), fabric_->endpoint(id), *txns_.back(), gc_, classes_));
    recovery_.push_back(std::make_unique<replication::RecoveryDaemon>(
        cluster_.node(id), fabric_->endpoint(id), *stores_.back(), naming_node(),
        hosts_.back().get(), coord_logs_.back().get()));
    recovery_.back()->runtime().set_obs(&trace_, &metrics_);
    if (cfg_.start_store_reaper) stores_.back()->start_reaper();
    if (cfg_.start_view_probe && id != naming_node())
      recovery_.back()->start_view_probe();
  }

  gvdb_ = std::make_unique<naming::GroupViewDb>(cluster_.node(naming_node()),
                                                *stores_[naming_node()],
                                                fabric_->endpoint(naming_node()),
                                                *txns_[naming_node()], cfg_.naming);
  gvdb_->set_obs(&trace_, &metrics_);
  janitor_ = std::make_unique<naming::UseListJanitor>(*gvdb_, fabric_->endpoint(naming_node()),
                                                      coord_logs_[naming_node()].get());
  if (cfg_.start_janitor) janitor_->start();

  if (cfg_.view_cache) {
    caches_.reserve(cfg_.nodes);
    for (NodeId id = 0; id < cfg_.nodes; ++id) {
      caches_.push_back(std::make_unique<naming::GroupViewCache>(fabric_->endpoint(id),
                                                                 naming_node()));
      naming::GroupViewCache* cache = caches_.back().get();
      // Every reply from the naming node carries recent epoch bumps; feed
      // them into this node's cache before the reply's awaiter resumes.
      fabric_->endpoint(id).set_piggyback_sink(
          [cache](NodeId from, Buffer blob) { cache->apply_piggyback(from, std::move(blob)); });
    }
  }
}

Uid ReplicaSystem::define_object(const std::string& name, const std::string& class_name,
                                 Buffer initial_state, std::vector<NodeId> sv,
                                 std::vector<NodeId> st, ReplicationPolicy policy,
                                 std::size_t servers_wanted) {
  const Uid uid = uids_.next();
  for (NodeId store_node : st)
    (void)stores_.at(store_node)->write_direct(uid, /*version=*/1, initial_state);
  gvdb_->create_object(uid, sv, st);
  for (NodeId server_node : sv) recovery_.at(server_node)->add_served_object(uid);
  names_[name] = uid;
  specs_[uid] = ObjectSpec{uid, class_name, policy, servers_wanted};
  return uid;
}

Result<Uid> ReplicaSystem::resolve(const std::string& name) const {
  auto it = names_.find(name);
  if (it == names_.end()) return Err::NotFound;
  return it->second;
}

Result<ObjectSpec> ReplicaSystem::spec_of(const Uid& uid) const {
  auto it = specs_.find(uid);
  if (it == specs_.end()) return Err::NotFound;
  return it->second;
}

ClientSession* ReplicaSystem::client(NodeId node) { return client(node, cfg_.scheme); }

ClientSession* ReplicaSystem::client(NodeId node, naming::Scheme scheme) {
  sessions_.push_back(std::make_unique<ClientSession>(*this, node, scheme));
  return sessions_.back().get();
}

Counters ReplicaSystem::aggregate_counters() const {
  Counters out;
  auto merge = [&out](const Counters& c) {
    for (const auto& [name, value] : c.all()) out.inc(name, value);
  };
  merge(const_cast<sim::Network&>(net_).counters());
  merge(const_cast<rpc::GroupComm&>(gc_).counters());
  for (const auto& s : stores_) merge(const_cast<store::ObjectStore&>(*s).counters());
  for (const auto& h : hosts_)
    merge(const_cast<replication::ObjectServerHost&>(*h).counters());
  for (const auto& r : recovery_) {
    merge(const_cast<replication::RecoveryDaemon&>(*r).counters());
    merge(const_cast<replication::RecoveryDaemon&>(*r).runtime().counters());
  }
  auto& gvdb = const_cast<naming::GroupViewDb&>(*gvdb_);
  merge(gvdb.counters());
  // Naming-entry lock traffic (Sv and St entries share one lock table),
  // re-namespaced so it is distinguishable from object-level lock
  // counters.
  for (const auto& [name, value] : gvdb.locks().counters().all()) out.inc("osdb." + name, value);
  merge(const_cast<naming::UseListJanitor&>(*janitor_).counters());
  merge(const_cast<naming::UseListJanitor&>(*janitor_).runtime().counters());
  for (const auto& c : caches_) merge(const_cast<naming::GroupViewCache&>(*c).counters());
  for (const auto& s : sessions_) {
    merge(const_cast<ClientSession&>(*s).counters());
    merge(const_cast<ClientSession&>(*s).runtime().counters());
    merge(const_cast<ClientSession&>(*s).activator().counters());
    merge(const_cast<ClientSession&>(*s).activator().binder().counters());
    merge(const_cast<ClientSession&>(*s).commit_processor().counters());
  }
  return out;
}

}  // namespace gv::core
