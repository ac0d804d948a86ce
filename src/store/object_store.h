// Object Storage service (sec 2.2): a stable-storage repository for
// persistent object states, one per store node.
//
// States are versioned: each top-level action that modifies an object
// installs version v+1. Writes from commit processing are two-phase —
// prepare() lands the new state in a stable shadow slot keyed by the
// action UID; commit() installs it; abort() discards it; one whose phase
// 2 never came is resolved with its coordinator. Checkpoints and recovery
// refreshes use the single-phase write_direct().
//
// Crash semantics: committed states and shadow slots live on stable
// storage and survive crashes; on recovery every locally stored object is
// marked SUSPECT — the store refuses to serve it until the recovery
// protocol (replication/recovery.h) has verified the state is the latest
// committed one. This closes the window where a store that crashed
// between the prepare and commit phases of a 2PC would serve a stale
// state while still listed in St(A).
#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "actions/atomic_action.h"
#include "rpc/rpc.h"
#include "sim/node.h"
#include "util/buffer.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/uid.h"

namespace gv::store {

using sim::NodeId;

struct VersionedState {
  std::uint64_t version = 0;
  Buffer state;
  GV_WIRE_FIELDS(version, state)
};

// One object's new state in a batched prepare: its shadow write at
// `version` under the preparing action.
struct StagedWrite {
  Uid uid;
  std::uint64_t version = 0;
  Buffer state;
  GV_WIRE_FIELDS(uid, version, state)
};

// Stable-storage fault injection (nemesis hook). Probabilities are
// evaluated per prepare(): `fail_prepare_prob` models an IO error that
// refuses the shadow install outright; `torn_shadow_prob` models a shadow
// write that lands torn on disk, which the store finds when it reads the
// write back against its checksum, before answering. Either way the
// write is answered StorageFault and not kept, and the commit processor
// Excludes this store like an unreachable one.
struct StoreFaultConfig {
  double fail_prepare_prob = 0.0;
  double torn_shadow_prob = 0.0;

  bool enabled() const noexcept { return fail_prepare_prob > 0 || torn_shadow_prob > 0; }
};

// RPC service name exposed by every store node.
inline constexpr const char* kStoreService = "store";

class ObjectStore {
 public:
  ObjectStore(sim::Node& node, rpc::RpcEndpoint& endpoint);

  // ---- local (same-node) API; read, probe and prepare are also RPCs ---
  Result<VersionedState> read(const Uid& uid) const;
  Result<std::uint64_t> version(const Uid& uid) const;
  // `coordinator` identifies the node coordinating `txn`: a shadow that
  // survives a crash is IN-DOUBT and is resolved by asking that node
  // (presume abort only if it answers that it does not know).
  Status prepare(const Uid& uid, const Uid& txn, std::uint64_t version, Buffer state,
                 NodeId coordinator = sim::kNoNode);
  Status commit(const Uid& txn);
  Status abort(const Uid& txn);
  Status write_direct(const Uid& uid, std::uint64_t version, Buffer state);
  bool contains(const Uid& uid) const;
  // Every locally stored object, in UID order.
  std::vector<Uid> local_objects() const;

  // Keyed stable records for a local service that persists itself here
  // but is not a replicated object: the naming databases keep one record
  // per entry, in a table named by the database's UID. Records are
  // stable like committed states, but never SUSPECT and never listed by
  // local_objects(): their owner validates them itself by reloading.
  void put_record(const Uid& table, const Uid& key, Buffer value);
  const std::map<Uid, Buffer>& records(const Uid& table) const;

  // True if any shadow slot holds a write for `uid`: the object's next
  // version may be decided-but-not-installed, so the committed version
  // here cannot be trusted as final. Recovery version scans must retry
  // instead of validating against it (see replication/recovery.cpp).
  bool has_pending_shadow(const Uid& uid) const;

  // Nested-action support over shadow slots.
  bool has_shadow(const Uid& txn) const { return shadows_.count(txn) > 0; }
  void rekey_shadow(const Uid& child, const Uid& parent);
  void drop_shadow(const Uid& txn) { shadows_.erase(txn); }

  // Orphan cleanup: a shadow older than kOrphanShadowAge with a recorded
  // coordinator is made IN-DOUBT (its phase 2 may have been lost after a
  // commit); one without is reaped. Returns the number reaped. A pass
  // with an in-doubt shadow starts the resolver. start_reaper runs a pass
  // every kReaperPeriod until stop_reaper, re-armed on recovery.
  static constexpr sim::SimTime kOrphanShadowAge = 2 * sim::kSecond;
  static constexpr sim::SimTime kReaperPeriod = 500 * sim::kMillisecond;
  std::size_t reap_orphan_shadows();
  void start_reaper();
  void stop_reaper() noexcept {
    if (reaper_ != nullptr) reaper_->running = false;
  }

  // Recovery bookkeeping.
  std::size_t in_doubt_count() const;
  bool suspect(const Uid& uid) const { return suspects_.count(uid) > 0; }
  void clear_suspect(const Uid& uid) { suspects_.erase(uid); }
  // Demote a locally stored object to SUSPECT so the recovery daemon
  // revalidates it (used by the partition-heal re-Include probe).
  void mark_suspect(const Uid& uid) {
    if (committed_.count(uid) > 0) suspects_.insert(uid);
  }
  std::vector<Uid> suspect_objects() const;

  // Fault injection (StorageFaultNemesis). `seed` keeps the fault stream
  // deterministic and independent of the rest of the simulation.
  void set_faults(StoreFaultConfig faults, std::uint64_t seed) {
    faults_ = faults;
    fault_rng_.reseed(seed);
  }
  void clear_faults() { faults_ = StoreFaultConfig{}; }

  Counters& counters() noexcept { return counters_; }

  // ---- remote client helpers (run on any node) -------------------------
  // Read the committed state of `uid` from store node `dest`.
  static sim::Task<Result<VersionedState>> remote_read(rpc::RpcEndpoint& from, NodeId dest,
                                                       Uid uid);
  // Committed version (0 if absent) plus whether a shadow for `uid` is
  // pending at `dest` — the recovery scan's view of a peer.
  struct Probe {
    std::uint64_t version = 0;
    bool pending = false;
    GV_WIRE_FIELDS(version, pending)
  };
  static sim::Task<Result<Probe>> remote_probe(rpc::RpcEndpoint& from, NodeId dest, Uid uid);
  // Prepare every write of `txn` at `dest` in one call: each runs
  // through prepare() in order, and the reply holds one Err per write (as
  // a u32; Err::None where the shadow landed). The handler does not
  // suspend, so a crash of `dest` lands before or after the whole batch.
  static sim::Task<Result<std::vector<std::uint32_t>>> remote_prepare(
      rpc::RpcEndpoint& from, NodeId dest, Uid txn, const std::vector<StagedWrite>& writes);

 private:
  void register_rpc();

  sim::Node& node_;
  rpc::RpcEndpoint& endpoint_;

  struct ShadowSet {
    std::map<Uid, VersionedState> writes;
    sim::SimTime created_at = 0;
    NodeId coordinator = sim::kNoNode;
    bool in_doubt = false;  // outcome to be asked of the coordinator
  };

  // Ask each in-doubt shadow's coordinator, with retries; a shadow it
  // never answers about stays in doubt. Runs as resolver_.
  sim::Task<> resolve_in_doubt();
  sim::Node::Job& resolver_;

  // STABLE storage: survives crashes. Hashed: looked up per operation,
  // never iterated where the order could reach the event stream.
  std::unordered_map<Uid, VersionedState> committed_;
  std::map<Uid, std::map<Uid, Buffer>> tables_;  // table -> key -> record
  // Shadow slots: stable; ended by phase 2, the in-doubt resolver or the
  // orphan reaper. txn -> pending writes.
  std::map<Uid, ShadowSet> shadows_;
  sim::Node::Duty* reaper_ = nullptr;
  StoreFaultConfig faults_;
  Rng fault_rng_{0xFA017};

  // VOLATILE: rebuilt on recovery. Ordered, so recovery repairs objects
  // in UID order.
  std::set<Uid> suspects_;

  Counters counters_;
};

// The store service's methods, declared once for the registration and
// the client stubs. A prepare's caller is the action's coordinator.
inline constexpr rpc::Rpc<VersionedState(Uid)> kStoreRead{kStoreService, "read"};
inline constexpr rpc::Rpc<ObjectStore::Probe(Uid)> kStoreProbe{kStoreService, "probe"};
inline constexpr rpc::Rpc<std::vector<std::uint32_t>(Uid, std::vector<StagedWrite>)> kStorePrepare{
    kStoreService, "prepare"};

inline sim::Task<Result<VersionedState>> ObjectStore::remote_read(rpc::RpcEndpoint& from,
                                                                  NodeId dest, Uid uid) {
  return from.call(dest, kStoreRead, uid);
}
inline sim::Task<Result<ObjectStore::Probe>> ObjectStore::remote_probe(rpc::RpcEndpoint& from,
                                                                       NodeId dest, Uid uid) {
  return from.call(dest, kStoreProbe, uid);
}
inline sim::Task<Result<std::vector<std::uint32_t>>> ObjectStore::remote_prepare(
    rpc::RpcEndpoint& from, NodeId dest, Uid txn, const std::vector<StagedWrite>& writes) {
  return from.call(dest, kStorePrepare, txn, writes);
}

// Adapter enrolling the store in client-coordinated 2PC. Registered in
// the node's TxnRegistry under kStoreService. Prepare work (the stable
// shadow write) happens via remote_prepare during commit processing, and
// its accepted write is the store's Yes vote: the commit processor enlists
// the store as already voted, so phase 1 does not ask it (DESIGN.md sec
// 22). A store asked anyway (one enlisted by hand) confirms it still holds
// the shadow: one lost to presumed abort votes no. A store never votes
// read-only: it is enlisted only where a copy landed, so a missing shadow
// is a lost one.
class StoreTxnParticipant final : public actions::ServerParticipant {
 public:
  explicit StoreTxnParticipant(ObjectStore& store) : store_(store) {}

  sim::Task<actions::Vote> prepare(const Uid& txn, bool may_leave) override;
  sim::Task<Status> commit(const Uid& txn) override;
  sim::Task<Status> abort(const Uid& txn) override;
  void nested_commit(const Uid& child, const Uid& parent) override;
  void nested_abort(const Uid& child) override;

 private:
  ObjectStore& store_;
};

}  // namespace gv::store
