#include "store/object_store.h"

#include <algorithm>

#include "actions/coordinator_log.h"
#include "core/trace.h"

#include "util/backoff.h"
#include "util/log.h"

namespace gv::store {

ObjectStore::ObjectStore(sim::Node& node, rpc::RpcEndpoint& endpoint)
    : node_(node),
      endpoint_(endpoint),
      resolver_(node.job([this] { return resolve_in_doubt(); })) {
  register_rpc();

  node_.on_crash([this] {
    // Volatile state only; committed_, tables_ and shadows_ are stable.
    suspects_.clear();
  });
  node_.on_recover([this] {
    // Recovery scan. Every shadow is IN-DOUBT: this store voted yes and
    // never learned the outcome (a torn write was refused when it was
    // written, so every shadow here is whole). Presuming abort here would
    // LOSE a commit the coordinator already decided; resolve by asking it.
    for (auto& [txn, set] : shadows_) {
      set.in_doubt = true;
      counters_.inc("store.in_doubt_shadow");
    }
    // Every object is suspect until the recovery protocol validates it.
    for (const auto& [uid, vs] : committed_) suspects_.insert(uid);
    if (!shadows_.empty()) (void)resolver_.start();
  });
}

Result<VersionedState> ObjectStore::read(const Uid& uid) const {
  auto it = committed_.find(uid);
  if (it == committed_.end()) return Err::NotFound;
  if (suspects_.count(uid) > 0) return Err::Conflict;  // recovering; refuse
  return it->second;
}

Result<std::uint64_t> ObjectStore::version(const Uid& uid) const {
  auto it = committed_.find(uid);
  if (it == committed_.end()) return Err::NotFound;
  return it->second.version;
}

Status ObjectStore::prepare(const Uid& uid, const Uid& txn, std::uint64_t version, Buffer state,
                            NodeId coordinator) {
  auto it = committed_.find(uid);
  if (it != committed_.end() && it->second.version >= version) {
    counters_.inc("store.prepare_stale");
    return Err::Conflict;  // a later state is already committed
  }
  // Likewise a state prepared by another action, which may be decided
  // while its phase 2 is lost: a second shadow at its version would be
  // built on the state it replaces, and whichever installs last loses
  // the other's update (found by the gv_campaign everything mix). Start
  // resolving that shadow with its coordinator now, so a retry need not
  // wait for the reaper.
  for (auto& [other, set] : shadows_) {
    auto w = set.writes.find(uid);
    if (other == txn || w == set.writes.end() || w->second.version < version) continue;
    counters_.inc("store.prepare_behind_shadow");
    if (set.coordinator != sim::kNoNode) {
      set.in_doubt = true;
      (void)resolver_.start();
    }
    return Err::Conflict;
  }
  if (faults_.fail_prepare_prob > 0 && fault_rng_.bernoulli(faults_.fail_prepare_prob)) {
    counters_.inc("store.fault_prepare_failed");
    return Err::StorageFault;  // injected IO error: the shadow install failed
  }
  // The write is read back against its checksum before it is answered,
  // so a tear fails the write here and the torn slot is not kept: every
  // shadow this store acknowledged is whole.
  if (faults_.torn_shadow_prob > 0 && fault_rng_.bernoulli(faults_.torn_shadow_prob)) {
    counters_.inc("store.fault_torn_shadow");
    return Err::StorageFault;
  }
  ShadowSet& set = shadows_[txn];
  if (set.writes.empty()) set.created_at = node_.sim().now();
  set.coordinator = coordinator;
  set.writes[uid] = VersionedState{version, std::move(state)};
  counters_.inc("store.prepare");
  return ok_status();
}

std::size_t ObjectStore::in_doubt_count() const {
  std::size_t n = 0;
  for (const auto& [txn, set] : shadows_)
    if (set.in_doubt) ++n;
  return n;
}

sim::Task<> ObjectStore::resolve_in_doubt() {
  // Snapshot the in-doubt txn ids; commits/aborts may arrive meanwhile.
  std::vector<Uid> pending;
  for (const auto& [txn, set] : shadows_)
    if (set.in_doubt) pending.push_back(txn);

  for (const Uid& txn : pending) {
    auto it = shadows_.find(txn);
    if (it == shadows_.end() || !it->second.in_doubt) continue;  // resolved meanwhile
    const NodeId coordinator = it->second.coordinator;

    actions::TxnOutcome outcome = actions::TxnOutcome::Unknown;
    bool unanswered = false;
    if (coordinator != sim::kNoNode) {
      // Unknown from a LIVE coordinator can mean "still deciding": retry
      // with backoff; only an Unknown answered every time (the coordinator
      // never decided: it crashed first, or the action was abandoned)
      // becomes a presumed abort. Silence proves nothing: the
      // coordinator's stable log may hold Committed.
      Backoff pace{BackoffConfig{100 * sim::kMillisecond, 500 * sim::kMillisecond},
                   endpoint_.rng().fork()};
      for (int attempt = 0; attempt < 10; ++attempt) {
        auto r =
            co_await actions::CoordinatorLog::remote_shadow_outcome(endpoint_, coordinator, txn);
        if (r.ok() && r.value() != actions::TxnOutcome::Unknown) {
          outcome = r.value();
          break;
        }
        unanswered |= !r.ok();
        co_await node_.sleep(pace.next());
        // A phase-2 RPC may have resolved it while we slept.
        if (shadows_.find(txn) == shadows_.end()) break;
      }
    }
    // Re-find: the wait may have resolved it through a phase-2 RPC.
    it = shadows_.find(txn);
    if (it == shadows_.end()) continue;
    if (outcome == actions::TxnOutcome::Committed) {
      counters_.inc("store.in_doubt_committed");
      core::trace_instant(endpoint_.trace(), "store.in_doubt_resolved", node_.id(), "store",
                          txn.to_string() + " committed");
      (void)commit(txn);
    } else if (outcome == actions::TxnOutcome::Aborted || !unanswered) {
      // A presumed abort (no coordinator to ask, or Unknown answered every
      // time) is counted so experiments can see it.
      counters_.inc(outcome == actions::TxnOutcome::Aborted ? "store.in_doubt_aborted"
                                                            : "store.in_doubt_presumed_abort");
      (void)abort(txn);
    } else {
      counters_.inc("store.in_doubt_unanswered");  // stays; the next trigger asks again
    }
  }
}

Status ObjectStore::commit(const Uid& txn) {
  auto it = shadows_.find(txn);
  if (it == shadows_.end()) return Err::NotFound;
  for (auto& [uid, vs] : it->second.writes) {
    auto cit = committed_.find(uid);
    // Install unless something newer arrived (cannot happen under 2PL,
    // but the check keeps the store self-protecting).
    if (cit == committed_.end() || cit->second.version < vs.version) {
      GV_LOG(LogLevel::Debug, node_.sim().now(), "store", "node %u install %s v%llu",
             node_.id(), uid.to_string().c_str(),
             static_cast<unsigned long long>(vs.version));
      committed_[uid] = std::move(vs);
    }
  }
  shadows_.erase(it);
  counters_.inc("store.commit");
  return ok_status();
}

Status ObjectStore::abort(const Uid& txn) {
  shadows_.erase(txn);
  counters_.inc("store.abort");
  return ok_status();
}

Status ObjectStore::write_direct(const Uid& uid, std::uint64_t version, Buffer state) {
  auto it = committed_.find(uid);
  if (it != committed_.end() && it->second.version > version) {
    counters_.inc("store.direct_stale");
    return Err::Conflict;
  }
  GV_LOG(LogLevel::Trace, node_.sim().now(), "store", "node %u direct-write %s v%llu",
         node_.id(), uid.to_string().c_str(), static_cast<unsigned long long>(version));
  committed_[uid] = VersionedState{version, std::move(state)};
  counters_.inc("store.direct_write");
  return ok_status();
}

bool ObjectStore::contains(const Uid& uid) const { return committed_.count(uid) > 0; }

void ObjectStore::put_record(const Uid& table, const Uid& key, Buffer value) {
  tables_[table][key] = std::move(value);
  counters_.inc("store.record_put");
}

const std::map<Uid, Buffer>& ObjectStore::records(const Uid& table) const {
  static const std::map<Uid, Buffer> kNone;
  auto it = tables_.find(table);
  return it == tables_.end() ? kNone : it->second;
}

bool ObjectStore::has_pending_shadow(const Uid& uid) const {
  for (const auto& [txn, set] : shadows_)
    if (set.writes.count(uid) > 0) return true;
  return false;
}

void ObjectStore::rekey_shadow(const Uid& child, const Uid& parent) {
  auto it = shadows_.find(child);
  if (it == shadows_.end()) return;
  ShadowSet& dst = shadows_[parent];
  if (dst.writes.empty()) dst.created_at = it->second.created_at;
  for (auto& [uid, vs] : it->second.writes) {
    // Child wrote after (within) the parent: the child's state is newer.
    dst.writes[uid] = std::move(vs);
  }
  shadows_.erase(child);
}

std::size_t ObjectStore::reap_orphan_shadows() {
  const sim::SimTime now = node_.sim().now();
  std::size_t reaped = 0;
  bool in_doubt = false;
  for (auto it = shadows_.begin(); it != shadows_.end();) {
    if (it->second.in_doubt) {
      in_doubt = true;  // resolved via the coordinator; never reap blindly
      ++it;
      continue;
    }
    if (now - it->second.created_at < kOrphanShadowAge) {
      ++it;
      continue;
    }
    if (it->second.coordinator != sim::kNoNode) {
      // An aged shadow with a known coordinator may be DECIDED: a
      // phase-2 commit RPC lost in the network leaves exactly this slot
      // behind, and presuming abort would silently drop a committed
      // install (found by the gv_campaign netchaos mix). Flip it to
      // in-doubt and resolve by asking the coordinator; only a shadow
      // with no recorded coordinator is reaped blindly.
      it->second.in_doubt = true;
      counters_.inc("store.orphan_made_in_doubt");
      in_doubt = true;
      ++it;
      continue;
    }
    it = shadows_.erase(it);
    ++reaped;
  }
  if (reaped > 0) {
    counters_.inc("store.reaped_orphan_shadows", reaped);
    core::trace_instant(endpoint_.trace(), "store.shadow_reaped", node_.id(), "store",
                        std::to_string(reaped) + " presumed abort");
  }
  if (in_doubt) (void)resolver_.start();
  return reaped;
}

void ObjectStore::start_reaper() {
  if (reaper_ != nullptr && reaper_->running) return;
  reaper_ = &node_.every(kReaperPeriod, [this]() -> sim::Task<> {
    (void)reap_orphan_shadows();
    co_return;
  });
}

std::vector<Uid> ObjectStore::local_objects() const {
  std::vector<Uid> out;
  out.reserve(committed_.size());
  for (const auto& [uid, vs] : committed_) out.push_back(uid);
  std::sort(out.begin(), out.end());  // UID order, whatever the table's layout
  return out;
}

std::vector<Uid> ObjectStore::suspect_objects() const {
  return {suspects_.begin(), suspects_.end()};
}

// --------------------------------------------------------------- RPC glue

void ObjectStore::register_rpc() {
  endpoint_.serve(kStoreRead, [this](NodeId, Uid uid) { return read(uid); });
  endpoint_.serve(kStoreProbe, [this](NodeId, Uid uid) -> Result<Probe> {
    return Probe{version(uid).value_or(0), has_pending_shadow(uid)};
  });
  endpoint_.serve(kStorePrepare, [this](NodeId from, Uid txn, std::vector<StagedWrite> writes)
                                     -> Result<std::vector<std::uint32_t>> {
    // The caller is the coordinator (the commit processor runs on the
    // client node).
    std::vector<std::uint32_t> errs;
    errs.reserve(writes.size());
    for (StagedWrite& w : writes) {
      Status s = prepare(w.uid, txn, w.version, std::move(w.state), from);
      errs.push_back(static_cast<std::uint32_t>(s.ok() ? Err::None : s.error()));
    }
    return errs;
  });
}

// ---------------------------------------------------------- participant

sim::Task<actions::Vote> StoreTxnParticipant::prepare(const Uid& txn, bool) {
  // A store is enlisted only where a shadow landed, so a missing shadow
  // means it was lost (reaped, or presumed aborted by the resolver) —
  // vote no.
  co_return store_.has_shadow(txn) ? actions::Vote::Yes : actions::Vote::No;
}

sim::Task<Status> StoreTxnParticipant::commit(const Uid& txn) {
  Status s = store_.commit(txn);
  // Idempotence: a retried commit after the shadow was installed is fine.
  if (!s.ok() && s.error() == Err::NotFound) co_return ok_status();
  co_return s;
}

sim::Task<Status> StoreTxnParticipant::abort(const Uid& txn) { co_return store_.abort(txn); }

void StoreTxnParticipant::nested_commit(const Uid& child, const Uid& parent) {
  store_.rekey_shadow(child, parent);
}

void StoreTxnParticipant::nested_abort(const Uid& child) { store_.drop_shadow(child); }

}  // namespace gv::store
