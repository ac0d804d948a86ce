#include "replication/object_server.h"

#include "util/log.h"

namespace gv::replication {

ObjectServerHost::ObjectServerHost(sim::Node& node, rpc::RpcEndpoint& endpoint,
                                   actions::TxnRegistry& txns, rpc::GroupComm& gc,
                                   ClassRegistry& classes)
    : node_(node),
      endpoint_(endpoint),
      gc_(gc),
      classes_(classes),
      locks_(node.sim()),
      orphans_(
          endpoint, [](sim::SimTime idle) { return idle >= kOrphanActionAge; },
          [this](Uid action, actions::OrphanResolver::Verdict verdict) {
            return resolve_orphan(action, verdict);
          }) {
  txns.add(kObjSrvService, this);
  register_rpc();
  node_.on_crash([this] {
    // Activated objects and all lock state are volatile; committed
    // states live in the stores.
    active_.clear();
    touched_.clear();
    terminated_.clear();
    orphans_.clear();
    locks_.reset();
  });
}

sim::Task<Result<std::uint64_t>> ObjectServerHost::activate(Uid object, std::string class_name,
                                                            std::vector<NodeId> st_nodes,
                                                            bool join) {
  Status s = co_await load(object, std::move(class_name), std::move(st_nodes));
  if (!s.ok()) co_return s.error();
  if (join && !join_group(object)) {
    counters_.inc("objsrv.join_refused");
    co_return Err::JoinRefused;
  }
  co_return node_.epoch();
}

sim::Task<Status> ObjectServerHost::load(Uid object, std::string class_name,
                                         std::vector<NodeId> st_nodes) {
  if (active_.count(object) > 0) {
    counters_.inc("objsrv.activate_idempotent");
    co_return ok_status();
  }
  if (activation_blocked_.count(object) > 0) {
    counters_.inc("objsrv.activate_blocked_recovering");
    co_return Err::NotQuiescent;  // Insert has not re-admitted us yet
  }
  if (!classes_.knows(class_name)) co_return Err::NotActivated;

  // Load the latest committed state from any functioning store in St.
  for (NodeId st : st_nodes) {
    auto r = co_await store::ObjectStore::remote_read(endpoint_, st, object);
    if (!r.ok()) {
      counters_.inc("objsrv.activate_store_miss");
      continue;
    }
    auto obj = classes_.make(class_name);
    if (!obj->restore(std::move(r.value().state)).ok()) co_return Err::NotActivated;
    Active a;
    a.class_name = std::move(class_name);
    a.obj = std::move(obj);
    a.version = r.value().version;
    GV_LOG(LogLevel::Debug, node_.sim().now(), "objsrv",
           "node %u activate %s v%llu from store %u", node_.id(), object.to_string().c_str(),
           static_cast<unsigned long long>(a.version), st);
    active_.emplace(object, std::move(a));
    counters_.inc("objsrv.activated");
    co_return ok_status();
  }
  counters_.inc("objsrv.activate_no_store");
  co_return Err::NoReplicas;
}

Status ObjectServerHost::activate_from_snapshot(Uid object, const std::string& class_name,
                                                std::uint64_t version, Buffer snapshot) {
  if (!classes_.knows(class_name)) return Err::NotFound;
  auto obj = classes_.make(class_name);
  Status restored = obj->restore(std::move(snapshot));
  if (!restored.ok()) return restored;
  Active a;
  a.class_name = class_name;
  a.obj = std::move(obj);
  a.version = version;
  active_[object] = std::move(a);  // replaces any stale instance
  counters_.inc("objsrv.cohort_checkpoint");
  return ok_status();
}

ObjectStatus ObjectServerHost::status(const Uid& object) const {
  auto it = active_.find(object);
  if (it == active_.end()) return {};
  return ObjectStatus{true, it->second.version, !it->second.modified_by.empty()};
}

sim::Task<Result<Buffer>> ObjectServerHost::invoke(Uid object, Uid action,
                                                   std::vector<Uid> ancestors,
                                                   actions::LockMode mode, std::string op,
                                                   Buffer args, NodeId owner,
                                                   std::optional<Activation> activation) {
  if (activation) {
    auto activated = co_await activate(object, std::move(activation->class_name),
                                       std::move(activation->st), activation->join);
    if (!activated.ok()) co_return activated.error();
    if (activation->join && gc_.members(object) != std::vector<NodeId>{node_.id()}) {
      counters_.inc("objsrv.invoke_not_sole_member");
      co_return Err::NotSoleMember;
    }
  }
  auto it = active_.find(object);
  if (it == active_.end()) co_return Err::NotFound;
  if (ended(action)) co_return Err::Aborted;
  if (owner != sim::kNoNode) orphans_.note(action, owner);
  Status lk = co_await locks_.acquire({object, actions::kObjectPart}, mode, action,
                                      kInvokeLockWait, std::move(ancestors));
  if (lk.error() == Err::Aborted) co_return Err::Aborted;  // the action ended while it waited
  if (!lk.ok()) {
    counters_.inc("objsrv.lock_refused");
    // The holder may be an action whose phase-2 never reached this node;
    // resolve it via its coordinator so the lock cannot wedge forever.
    trigger_orphan_sweep();
    co_return lk.error();
  }
  // Re-check after the wait: the object may have been passivated, or the
  // action ended between the grant and this resumption (ending it
  // released the lock).
  if (ended(action)) co_return Err::Aborted;
  auto it2 = active_.find(object);
  if (it2 == active_.end()) co_return Err::NotFound;
  co_return co_await apply_locked(it2->second, object, action, mode, op, std::move(args));
}

bool ObjectServerHost::ended(const Uid& action) {
  if (terminated_.get(action) == 0) return false;
  counters_.inc("objsrv.refused_dead_action");
  return true;
}

sim::Task<Result<Buffer>> ObjectServerHost::apply_locked(Active& a, Uid object, Uid action,
                                                         actions::LockMode mode,
                                                         const std::string& op, Buffer args) {
  // Before-image on first write by this action (undo for abort). For
  // read-mode invocations keep a scratch snapshot so a misdeclared
  // operation (one that mutates under a read lock) can be rolled back
  // instead of corrupting serialisability.
  if (mode == actions::LockMode::Write && a.before.count(action) == 0) {
    a.before.emplace(action, a.obj->snapshot());
    touched_[action].insert(object);  // covers modified_by too: only writers modify
  }
  Buffer scratch;
  if (mode != actions::LockMode::Write) scratch = a.obj->snapshot();

  bool modified = false;
  Result<Buffer> result = a.obj->apply(op, std::move(args), modified);
  counters_.inc("objsrv.invoke");
  if (modified) {
    if (mode != actions::LockMode::Write) {
      (void)a.obj->restore(std::move(scratch));
      counters_.inc("objsrv.mode_violation");
      co_return Err::BadRequest;
    }
    a.modified_by.insert(action);
  }
  co_return result;
}

Result<ObjectServerHost::StateForCommit> ObjectServerHost::state_for_commit(
    const Uid& object, const Uid& txn) const {
  auto it = active_.find(object);
  if (it == active_.end()) return Err::NotFound;
  // Refuse to testify while ANOTHER action's write is pending here. Under
  // correct locking that cannot happen for a live competitor (txn could
  // not have invoked the object) — it means an action whose phase-2 never
  // arrived still wedges this replica, so our state may be missing ops
  // the rest of the group applied. Answering "v, unmodified" would let
  // the commit processor stage a stale snapshot or skip the copy-back
  // entirely (lost update, found by the gv_campaign netchaos mix); an
  // error makes it delist us instead, like an unreachable member.
  for (const auto& [holder, img] : it->second.before)
    if (holder != txn) return Err::Inconsistent;
  for (const Uid& writer : it->second.modified_by)
    if (writer != txn) return Err::Inconsistent;
  StateForCommit out;
  out.version = it->second.version;
  out.modified = it->second.modified_by.count(txn) > 0;
  out.snapshot = it->second.obj->snapshot();
  GV_LOG(LogLevel::Debug, node_.sim().now(), "objsrv",
         "node %u state_for_commit %s v%llu modified=%d", node_.id(),
         object.to_string().c_str(), static_cast<unsigned long long>(out.version),
         out.modified ? 1 : 0);
  return out;
}

ObjectServerHost::Staging ObjectServerHost::stage(const Uid& txn, const std::vector<Uid>& objects,
                                                  bool may_leave) {
  Staging out;
  out.answers.reserve(objects.size());
  for (const Uid& object : objects) {
    auto r = state_for_commit(object, txn);
    if (r.ok())
      out.answers.push_back(std::move(r).value());
    else
      out.answers.emplace_back().err = static_cast<std::uint32_t>(r.error());
  }
  if (may_leave && touched_.count(txn) == 0) {
    // The action left no before-image here: it ends now. Marking it
    // terminated refuses a late invocation of it.
    terminated_.set(txn, 1);
    orphans_.forget(txn);
    locks_.release_all(txn);
    counters_.inc("objsrv.read_only_vote");
    out.vote = actions::Vote::ReadOnly;
  }
  return out;
}

void ObjectServerHost::mark_committed(const Uid& object, std::uint64_t new_version) {
  auto it = active_.find(object);
  if (it == active_.end() || it->second.version >= new_version) return;
  // A lower version here means this replica MISSED an update the group
  // committed (e.g. it was down at delivery time and dropped from the
  // delivery view): its state does not derive from the committed
  // snapshot. Fast-forwarding the version number would launder that
  // divergence — the replica would then tie on version with correct
  // members and could win commit staging, silently dropping the missed
  // update (found by the gv_campaign everything mix). Retire it instead,
  // so the next activation reloads authoritative state from a store;
  // keep it only while other actions still have undo state here, in
  // which case the state_for_commit consistency check quarantines it.
  if (it->second.before.empty() && it->second.modified_by.empty()) {
    active_.erase(it);
    counters_.inc("objsrv.stale_retired");
  } else {
    counters_.inc("objsrv.stale_busy");
  }
}

Status ObjectServerHost::passivate(const Uid& object) {
  auto it = active_.find(object);
  if (it == active_.end()) return ok_status();
  if (!it->second.before.empty() || locks_.holder_count({object, actions::kObjectPart}) > 0)
    return Err::NotQuiescent;
  active_.erase(it);
  counters_.inc("objsrv.passivated");
  return ok_status();
}

// ---------------------------------------------------------- participant

sim::Task<actions::Vote> ObjectServerHost::prepare(const Uid&, bool) {
  counters_.inc("objsrv.prepare_refused");
  co_return actions::Vote::No;
}

std::vector<ObjectServerHost::ActiveEntry*> ObjectServerHost::take_touched(const Uid& action) {
  std::vector<ActiveEntry*> out;
  auto it = touched_.find(action);
  if (it == touched_.end()) return out;
  for (const Uid& uid : it->second) {
    auto ait = active_.find(uid);
    if (ait != active_.end()) out.push_back(&*ait);  // else passivated or retired since
  }
  touched_.erase(it);
  return out;
}

sim::Task<Status> ObjectServerHost::commit(const Uid& txn) {
  terminated_.set(txn, 1);
  for (ActiveEntry* entry : take_touched(txn)) {
    Active& a = entry->second;
    a.before.erase(txn);
    // Advance the version here, not only via the best-effort
    // mark_committed that follows: a member that misses that RPC would
    // otherwise keep applied state under a stale version forever. The
    // staged version is always >= this (max responding version + 1): the
    // freshest member lands exactly on it, and a staler member stays
    // below and is retired by the mark_committed that follows.
    if (a.modified_by.erase(txn) > 0) ++a.version;
  }
  orphans_.forget(txn);
  locks_.release_all(txn);
  counters_.inc("objsrv.txn_commit");
  co_return ok_status();
}

sim::Task<Status> ObjectServerHost::abort(const Uid& txn) {
  terminated_.set(txn, 1);
  for (ActiveEntry* entry : take_touched(txn)) {
    Active& a = entry->second;
    auto bit = a.before.find(txn);
    if (bit != a.before.end()) {
      (void)a.obj->restore(std::move(bit->second));
      a.before.erase(bit);
      counters_.inc("objsrv.restored_before_image");
    }
    a.modified_by.erase(txn);
  }
  orphans_.forget(txn);
  locks_.release_all(txn);
  counters_.inc("objsrv.txn_abort");
  co_return ok_status();
}

// ------------------------------------------------ orphaned-action resolution

void ObjectServerHost::trigger_orphan_sweep() {
  if (orphans_.trigger()) counters_.inc("objsrv.orphan_sweep");
}

sim::Task<> ObjectServerHost::resolve_orphan(Uid action, actions::OrphanResolver::Verdict verdict) {
  // Objects this action wrote are suspect regardless of outcome: the
  // replica may have missed the action's effects (or earlier version
  // bumps) while wedged. Collect them before the cleanup erases the
  // traces, then retire them so the next activation reloads committed
  // state from a store.
  std::vector<Uid> touched;
  if (auto tit = touched_.find(action); tit != touched_.end())
    for (const Uid& uid : tit->second) {
      auto ait = active_.find(uid);
      if (ait != active_.end() &&
          (ait->second.before.count(action) > 0 || ait->second.modified_by.count(action) > 0))
        touched.push_back(uid);
    }
  using Verdict = actions::OrphanResolver::Verdict;
  if (verdict == Verdict::Committed) {
    (void)co_await commit(action);
    counters_.inc("objsrv.orphan_committed");
  } else {
    (void)co_await abort(action);
    counters_.inc(verdict == Verdict::Aborted ? "objsrv.orphan_aborted"
                                              : "objsrv.orphan_presumed_abort");
  }
  for (const Uid& uid : touched) {
    active_.erase(uid);
    counters_.inc("objsrv.orphan_retired");
  }
}

void ObjectServerHost::nested_commit(const Uid& child, const Uid& parent) {
  locks_.transfer(child, parent);
  for (ActiveEntry* entry : take_touched(child)) {
    Active& a = entry->second;
    touched_[parent].insert(entry->first);
    auto bit = a.before.find(child);
    if (bit != a.before.end()) {
      // Parent keeps ITS before-image if it has one (it is older); the
      // child's image becomes the parent's otherwise.
      if (a.before.count(parent) == 0) a.before.emplace(parent, std::move(bit->second));
      a.before.erase(child);
    }
    if (a.modified_by.erase(child) > 0) a.modified_by.insert(parent);
  }
  // The parent inherits the child's locks, so it inherits orphan tracking
  // too: left keyed by the child, a dead client's lock would never be
  // swept.
  (void)orphans_.inherit(child, parent);
}

void ObjectServerHost::nested_abort(const Uid& child) {
  for (ActiveEntry* entry : take_touched(child)) {
    Active& a = entry->second;
    auto bit = a.before.find(child);
    if (bit != a.before.end()) {
      (void)a.obj->restore(std::move(bit->second));
      a.before.erase(bit);
    }
    a.modified_by.erase(child);
  }
  orphans_.forget(child);
  locks_.release_all(child);
}

// -------------------------------------------------------- group delivery

bool ObjectServerHost::join_group(const Uid& object) {
  return gc_.join(object, node_.id(), [this](NodeId from, std::uint64_t, Buffer msg) {
    endpoint_.receive(from, std::move(msg));
  });
}

// --------------------------------------------------------------- RPC glue

void ObjectServerHost::register_rpc() {
  endpoint_.serve(kObjsrvActivate,
                  [this](NodeId, Uid object, std::string cls, std::vector<NodeId> st, bool join) {
                    return activate(object, std::move(cls), std::move(st), join);
                  });
  endpoint_.serve(kObjsrvInvoke, [this](NodeId from, Uid object, Uid action,
                                        std::vector<Uid> ancestors, actions::LockMode mode,
                                        std::string op, Buffer args,
                                        std::optional<Activation> activation) {
    return invoke(object, action, std::move(ancestors), mode, std::move(op), std::move(args),
                  from, std::move(activation));
  });
  endpoint_.serve(kObjsrvStateForCommit,
                  [this](NodeId, Uid txn, std::vector<Uid> objects,
                         bool may_leave) -> Result<Staging> {
                    return stage(txn, objects, may_leave);
                  });
  endpoint_.serve(kObjsrvMarkCommitted,
                  [this](NodeId, Uid object, std::uint64_t version) -> Status {
                    mark_committed(object, version);
                    return ok_status();
                  });
  endpoint_.serve(kObjsrvCohortCheckpoint, [this](NodeId, Uid object, std::string cls,
                                                  std::uint64_t version, Buffer snapshot) {
    return activate_from_snapshot(object, cls, version, std::move(snapshot));
  });
}

}  // namespace gv::replication
