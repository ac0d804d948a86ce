// Tests for the sec-6 group-view cache stack: per-entry view epochs in
// the naming databases, the client-side GroupViewCache (singleflight
// coalescing, batched prefetch, reply-piggyback invalidation), the
// cached bind path (zero naming RPCs when warm), and the commit-time
// epoch validation that makes stale caches safe (StaleView -> abort ->
// rebind), including the crash/recovery and naming-restart regressions.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "actions/atomic_action.h"
#include "core/system.h"
#include "naming/group_view_db.h"
#include "naming/view_cache.h"
#include "replication/state_machine.h"
#include "sim/simulator.h"

namespace gv::naming {
namespace {

using actions::ActionRuntime;
using actions::AtomicAction;

// Small direct-database fixture (node 0 = naming node).
struct Fixture {
  sim::Simulator sim{71};
  sim::Cluster cluster{sim};
  sim::Network net{sim, cluster};
  std::unique_ptr<rpc::RpcFabric> fabric;
  std::unique_ptr<actions::TxnRegistry> naming_txns;
  std::unique_ptr<store::ObjectStore> naming_store;
  std::unique_ptr<GroupViewDb> gvdb;
  std::unique_ptr<ActionRuntime> rt;

  Uid obj{100, 1};

  explicit Fixture(std::size_t nodes = 6) {
    cluster.add_nodes(nodes);
    fabric = std::make_unique<rpc::RpcFabric>(cluster, net);
    naming_txns = std::make_unique<actions::TxnRegistry>(fabric->endpoint(0));
    naming_store = std::make_unique<store::ObjectStore>(cluster.node(0), fabric->endpoint(0));
    gvdb = std::make_unique<GroupViewDb>(cluster.node(0), *naming_store, fabric->endpoint(0),
                                         *naming_txns);
    rt = std::make_unique<ActionRuntime>(fabric->endpoint(1), 0xCAC4E);
    gvdb->create_object(obj, {2, 3, 4}, {2, 3, 4});
  }

  template <typename F>
  void run(F&& body) {
    sim.spawn(std::forward<F>(body));
    sim.run();
  }
};

// ------------------------------------------------------------- epochs

// Every committed mutating operation on a view entry advances its epoch,
// so a cached epoch equality proves the cached member list is current.
TEST(ViewEpochs, EveryMutatingOpBumpsTheEntryEpoch) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    const std::uint64_t sv0 = f.gvdb->servers().epoch_of(f.obj);
    const std::uint64_t st0 = f.gvdb->states().epoch_of(f.obj);
    EXPECT_GT(sv0, 0u);
    EXPECT_GT(st0, 0u);

    {  // Sv: Remove
      AtomicAction act{*f.rt};
      EXPECT_TRUE((co_await osdb_remove(f.rt->endpoint(), 0, f.obj, 3, act.uid())).ok());
      act.enlist({0, kGvdbService});
      EXPECT_TRUE((co_await act.commit()).ok());
    }
    const std::uint64_t sv1 = f.gvdb->servers().epoch_of(f.obj);
    EXPECT_GT(sv1, sv0);

    {  // Sv: Insert
      AtomicAction act{*f.rt};
      EXPECT_TRUE((co_await osdb_insert(f.rt->endpoint(), 0, f.obj, 3, act.uid())).ok());
      act.enlist({0, kGvdbService});
      EXPECT_TRUE((co_await act.commit()).ok());
    }
    EXPECT_GT(f.gvdb->servers().epoch_of(f.obj), sv1);

    {  // St: Exclude
      AtomicAction act{*f.rt};
      std::vector<ExcludeItem> items;
      items.push_back(ExcludeItem{f.obj, {4}});
      EXPECT_TRUE(
          (co_await ostdb_exclude(f.rt->endpoint(), 0, std::move(items), act.uid())).ok());
      act.enlist({0, kGvdbService});
      EXPECT_TRUE((co_await act.commit()).ok());
    }
    const std::uint64_t st1 = f.gvdb->states().epoch_of(f.obj);
    EXPECT_GT(st1, st0);

    {  // St: Include
      AtomicAction act{*f.rt};
      EXPECT_TRUE((co_await ostdb_include(f.rt->endpoint(), 0, f.obj, 4, act.uid())).ok());
      act.enlist({0, kGvdbService});
      EXPECT_TRUE((co_await act.commit()).ok());
    }
    EXPECT_GT(f.gvdb->states().epoch_of(f.obj), st1);
  }(f));
}

// Epochs are monotonic even across aborts: the undo path bumps again
// rather than restoring the old number, so an epoch observed during a
// dirty read can never be reused for a different membership.
TEST(ViewEpochs, AbortNeverRewindsAnEpoch) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    const std::uint64_t sv0 = f.gvdb->servers().epoch_of(f.obj);
    AtomicAction act{*f.rt};
    EXPECT_TRUE((co_await osdb_remove(f.rt->endpoint(), 0, f.obj, 3, act.uid())).ok());
    const std::uint64_t sv_dirty = f.gvdb->servers().epoch_of(f.obj);
    EXPECT_GT(sv_dirty, sv0);
    act.enlist({0, kGvdbService});
    (void)co_await act.abort();
    // Membership is back, the dirty epoch is not.
    auto v = f.gvdb->servers().peek_view(f.obj);
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(v.value().sv, (std::vector<NodeId>{2, 3, 4}));
    EXPECT_GT(f.gvdb->servers().epoch_of(f.obj), sv_dirty);
  }(f));
}

// The piggyback blob is built once per change and shared by every reply
// until the next one; it must never lag the databases. Decode it after
// each bump, abort and naming-node restart and compare with the entries.
TEST(ViewEpochs, PiggybackBlobTracksEveryBumpAndIncarnation) {
  Fixture f;
  const Uid other{100, 2};
  f.gvdb->create_object(other, {2, 3}, {2, 3});
  const std::function<void(const char*)> expect_current = [&f](const char* when) {
    Buffer blob = f.gvdb->piggyback_blob();
    ASSERT_FALSE(blob.empty()) << when;
    Piggyback p;
    ASSERT_TRUE(rpc::decode(blob, p)) << when;
    EXPECT_EQ(p.incarnation, f.cluster.node(0).epoch()) << when;
    for (const ValidateItem& bump : p.bumps) {
      EXPECT_EQ(bump.sv_epoch, f.gvdb->servers().epoch_of(bump.object)) << when;
      EXPECT_EQ(bump.st_epoch, f.gvdb->states().epoch_of(bump.object)) << when;
    }
    EXPECT_EQ(blob.remaining(), 0u) << when;
  };
  EXPECT_TRUE(f.gvdb->piggyback_blob().empty());  // nothing bumped yet
  f.run([](Fixture& f, Uid other,
            const std::function<void(const char*)>& expect_current) -> sim::Task<> {
    {
      AtomicAction act{*f.rt};
      EXPECT_TRUE((co_await osdb_remove(f.rt->endpoint(), 0, f.obj, 3, act.uid())).ok());
      expect_current("after a dirty remove");
      act.enlist({0, kGvdbService});
      EXPECT_TRUE((co_await act.commit()).ok());
    }
    {
      AtomicAction act{*f.rt};
      std::vector<ExcludeItem> items;
      items.push_back(ExcludeItem{other, {3}});
      EXPECT_TRUE(
          (co_await ostdb_exclude(f.rt->endpoint(), 0, std::move(items), act.uid())).ok());
      act.enlist({0, kGvdbService});
      (void)co_await act.abort();
      expect_current("after an aborted exclude");
    }
    // Unchanged databases give the very same bytes.
    const Buffer before = f.gvdb->piggyback_blob();
    EXPECT_EQ(f.gvdb->piggyback_blob(), before);
  }(f, other, expect_current));
  // A restart reloads committed epochs only; the abort's bumps are gone.
  f.cluster.node(0).crash();
  f.cluster.node(0).recover();
  expect_current("after a naming-node restart");
}

// -------------------------------------------------------- singleflight

// N concurrent misses for the same UID produce exactly one get_views
// RPC; the followers wait on the leader's fill instead of dogpiling the
// naming node.
TEST(ViewCache, SingleflightCoalescesConcurrentMisses) {
  Fixture f;
  GroupViewCache cache{f.fabric->endpoint(1), 0};
  int ok_count = 0;
  for (int i = 0; i < 4; ++i) {
    f.sim.spawn([](Fixture& f, GroupViewCache& cache, int& ok_count) -> sim::Task<> {
      auto e = co_await cache.get_or_fetch(f.obj);
      if (e.ok() && e.value().sv == std::vector<NodeId>{2, 3, 4}) ++ok_count;
    }(f, cache, ok_count));
  }
  f.sim.run();
  EXPECT_EQ(ok_count, 4);
  EXPECT_EQ(cache.counters().get("cache.fill_rpcs"), 1u);
  EXPECT_EQ(cache.counters().get("cache.coalesced"), 3u);
  EXPECT_EQ(f.gvdb->counters().get("gvdb.get_views"), 1u);
  // And a later lookup is a pure hit.
  f.run([](Fixture& f, GroupViewCache& cache) -> sim::Task<> {
    auto e = co_await cache.get_or_fetch(f.obj);
    EXPECT_TRUE(e.ok());
  }(f, cache));
  EXPECT_EQ(cache.counters().get("cache.hit"), 1u);
  EXPECT_EQ(f.gvdb->counters().get("gvdb.get_views"), 1u);
}

// A batched prefetch fills many entries with one RPC; re-prefetching
// cached UIDs is free.
TEST(ViewCache, PrefetchFillsManyUidsWithOneRpc) {
  Fixture f;
  Uid b{101, 1}, c{102, 1};
  f.gvdb->create_object(b, {2, 3}, {4, 5});
  f.gvdb->create_object(c, {3}, {5});
  GroupViewCache cache{f.fabric->endpoint(1), 0};
  f.run([](Fixture& f, GroupViewCache& cache, Uid b, Uid c) -> sim::Task<> {
    std::vector<Uid> want{f.obj, b, c};
    EXPECT_TRUE((co_await cache.prefetch(want)).ok());
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_TRUE((co_await cache.prefetch(want)).ok());
  }(f, cache, b, c));
  EXPECT_EQ(cache.counters().get("cache.fill_rpcs"), 1u);
  EXPECT_EQ(f.gvdb->counters().get("gvdb.get_views"), 1u);
  EXPECT_EQ(f.gvdb->counters().get("gvdb.get_views_uids"), 3u);
  ASSERT_NE(cache.lookup(f.obj), nullptr);
  EXPECT_EQ(cache.lookup(f.obj)->st, (std::vector<NodeId>{2, 3, 4}));
  // Unknown UIDs surface as NotFound without poisoning the cache.
  f.run([](Fixture&, GroupViewCache& cache) -> sim::Task<> {
    auto e = co_await cache.get_or_fetch(Uid{9, 9});
    EXPECT_EQ(e.error(), Err::NotFound);
  }(f, cache));
  EXPECT_EQ(cache.size(), 3u);
}

}  // namespace
}  // namespace gv::naming

namespace gv::core {
namespace {

using replication::BankAccount;

Buffer i64_buf(std::int64_t v) {
  Buffer b;
  b.pack_i64(v);
  return b;
}

SystemConfig cached_cfg(std::size_t nodes, std::uint64_t seed) {
  SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = seed;
  cfg.view_cache = true;
  return cfg;
}

// The headline property: once the cache is warm, binding an object makes
// ZERO naming-node RPCs — no GetServer, no GetView, no use-list
// Increment/Decrement — and the only naming interaction left in the
// whole transaction is the single batched commit-time validate.
TEST(ViewCache, WarmBindMakesZeroNamingRpcs) {
  ReplicaSystem sys{cached_cfg(8, 11)};
  const Uid obj = sys.define_object("o", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = sys.client(1);
  sys.sim().spawn([](ClientSession* client, Uid obj) -> sim::Task<> {
    for (int i = 0; i < 3; ++i) {
      auto txn = client->begin();
      EXPECT_TRUE((co_await txn->invoke(obj, "deposit", i64_buf(10), LockMode::Write)).ok());
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
  }(client, obj));
  sys.sim().run();

  Counters all = sys.aggregate_counters();
  // One cold fill, then pure hits.
  EXPECT_EQ(all.get("gvdb.get_views"), 1u);
  EXPECT_EQ(all.get("cache.miss"), 1u);
  EXPECT_EQ(all.get("cache.hit"), 2u);
  // The classic naming traffic never happens on the cached path.
  EXPECT_EQ(all.get("osdb.get_server"), 0u);
  EXPECT_EQ(all.get("osdb.bind"), 0u);
  EXPECT_EQ(all.get("osdb.decrement"), 0u);
  EXPECT_EQ(all.get("ostdb.get_view"), 0u);
  EXPECT_EQ(all.get("gvdb.bind_read"), 0u);
  // Each commit validates its cached views with exactly one RPC.
  EXPECT_EQ(all.get("commit.validate_rpcs"), 3u);
  EXPECT_EQ(all.get("commit.validate_ok"), 3u);
  EXPECT_EQ(all.get("gvdb.validate"), 3u);
  // And the money arrived.
  BankAccount acct;
  (void)acct.restore(std::move(sys.store_at(3).read(obj).value().state));
  EXPECT_EQ(acct.balance(), 30);
}

// Read-only votes keep the paper's lock rule. In a writing action the
// stores vote Yes first, so the group view database is not let go at its
// vote: the St read lock that validate took pins the view until phase 2,
// and an Include queued behind it is granted only after the decision
// reached the naming node.
TEST(ViewCache, WritingActionHoldsValidateLocksUntilPhase2) {
  ReplicaSystem sys{cached_cfg(8, 14)};
  sys.gvdb().config().lock_wait = sim::kSecond;  // outwait the whole 2PC
  const Uid obj = sys.define_object("o", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = sys.client(1);
  sys.sim().spawn([](ClientSession* client, Uid obj) -> sim::Task<> {
    auto txn = client->begin();
    EXPECT_TRUE((co_await txn->invoke(obj, "deposit", i64_buf(10), LockMode::Write)).ok());
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(client, obj));
  std::uint64_t naming_commits_at_grant = 0;
  bool granted = false;
  sys.sim().spawn([](ReplicaSystem& sys, Uid obj, bool& granted,
                     std::uint64_t& naming_commits_at_grant) -> sim::Task<> {
    // Staging has begun, so validate holds St's read lock for the client.
    while (!sys.store_at(3).has_pending_shadow(obj)) co_await sys.sim().sleep(100);
    EXPECT_GT(sys.gvdb().locks().holder_count({obj, naming::kStPart}), 0u);
    const Uid include_action{0x1C1, 1};
    granted = (co_await sys.gvdb().include(obj, 3, include_action)).ok();
    naming_commits_at_grant = sys.gvdb().counters().get("db.commit");
    (void)co_await sys.gvdb().abort(include_action);
  }(sys, obj, granted, naming_commits_at_grant));
  sys.sim().run();
  EXPECT_TRUE(granted);
  EXPECT_EQ(naming_commits_at_grant, 1u);  // the client's phase 2
  EXPECT_EQ(sys.gvdb().counters().get("db.read_only_vote"), 0u);
}

// A multi-object transaction that prefetches binds every object off one
// get_views RPC.
TEST(ViewCache, PrefetchedMultiObjectTransactionBatchesNaming) {
  ReplicaSystem sys{cached_cfg(10, 12)};
  const Uid a = sys.define_object("a", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                  ReplicationPolicy::SingleCopyPassive, 1);
  const Uid b = sys.define_object("b", "bank", BankAccount{}.snapshot(), {5}, {6, 7},
                                  ReplicationPolicy::SingleCopyPassive, 1);
  const Uid c = sys.define_object("c", "bank", BankAccount{}.snapshot(), {8}, {9, 3},
                                  ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = sys.client(1);
  sys.sim().spawn([](ClientSession* client, Uid a, Uid b, Uid c) -> sim::Task<> {
    std::vector<Uid> objs{a, b, c};
    EXPECT_TRUE((co_await client->prefetch(objs)).ok());
    auto txn = client->begin();
    for (Uid obj : objs)
      EXPECT_TRUE((co_await txn->invoke(obj, "deposit", i64_buf(5), LockMode::Write)).ok());
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(client, a, b, c));
  sys.sim().run();

  Counters all = sys.aggregate_counters();
  EXPECT_EQ(all.get("gvdb.get_views"), 1u);
  EXPECT_EQ(all.get("gvdb.get_views_uids"), 3u);
  EXPECT_EQ(all.get("cache.hit"), 3u);  // all three binds were warm
  EXPECT_EQ(all.get("commit.validate_rpcs"), 1u);  // one batch for all three
}

// Staleness: another client's commit Excludes a store after our cache
// went warm. Our commit must NOT silently succeed against the retired
// view — it aborts with StaleView, and a plain retry rebinds freshly.
TEST(ViewCache, StaleEpochAbortsCommitAndRetryRebinds) {
  ReplicaSystem sys{cached_cfg(8, 13)};
  const Uid obj = sys.define_object("o", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  auto* a = sys.client(1);
  auto* b = sys.client(5);
  sys.sim().spawn([](ReplicaSystem& sys, ClientSession* a, ClientSession* b,
                     Uid obj) -> sim::Task<> {
    {  // Warm A's cache and put money in.
      auto txn = a->begin();
      EXPECT_TRUE((co_await txn->invoke(obj, "deposit", i64_buf(100), LockMode::Write)).ok());
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
    sys.cluster().node(4).crash();
    {  // B's commit fails the copy to 4 and Excludes it (epoch bump).
      auto txn = b->begin();
      EXPECT_TRUE((co_await txn->invoke(obj, "deposit", i64_buf(10), LockMode::Write)).ok());
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
    // B's own cache entry was dropped by the piggyback riding the reply.
    EXPECT_EQ(sys.view_cache_at(5)->lookup(obj), nullptr);
    {  // A still holds the pre-Exclude view: commit must refuse it.
      auto txn = a->begin();
      EXPECT_TRUE((co_await txn->invoke(obj, "withdraw", i64_buf(30), LockMode::Write)).ok());
      Status s = co_await txn->commit();
      EXPECT_FALSE(s.ok());
      EXPECT_EQ(s.error(), Err::StaleView);
    }
    EXPECT_EQ(sys.view_cache_at(1)->lookup(obj), nullptr);  // invalidated
    {  // The retry rebinds through a fresh fetch and succeeds.
      auto txn = a->begin();
      EXPECT_TRUE((co_await txn->invoke(obj, "withdraw", i64_buf(30), LockMode::Write)).ok());
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
  }(sys, a, b, obj));
  sys.sim().run();

  EXPECT_GE(a->commit_processor().counters().get("commit.validate_stale"), 1u);
  auto st = sys.gvdb().states().peek(obj);
  EXPECT_EQ(st, (std::vector<sim::NodeId>{3}));  // 4 retired
  BankAccount acct;
  (void)acct.restore(std::move(sys.store_at(3).read(obj).value().state));
  EXPECT_EQ(acct.balance(), 80);  // 100 + 10 - 30; the stale withdraw rolled back
}

// The crash/recovery regression: a store is Excluded and then re-Included
// by its recovery daemon, so the membership SET matches the warm cache
// again — but the stores were refreshed in between. Set-equality
// validation would wrongly pass here; epoch validation must not.
TEST(ViewCache, RecoveryReincludeStillInvalidatesWarmCache) {
  ReplicaSystem sys{cached_cfg(8, 14)};
  const Uid obj = sys.define_object("o", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  auto* a = sys.client(1);
  auto* b = sys.client(5);
  sys.sim().spawn([](ReplicaSystem& sys, ClientSession* a, ClientSession* b,
                     Uid obj) -> sim::Task<> {
    {
      auto txn = a->begin();
      EXPECT_TRUE((co_await txn->invoke(obj, "deposit", i64_buf(100), LockMode::Write)).ok());
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
    const std::uint64_t st_epoch_cached = sys.view_cache_at(1)->lookup(obj)->st_epoch;
    sys.cluster().node(4).crash();
    {
      auto txn = b->begin();
      EXPECT_TRUE((co_await txn->invoke(obj, "deposit", i64_buf(10), LockMode::Write)).ok());
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
    sys.cluster().node(4).recover();
    // Let node 4's recovery daemon re-Include and refresh its store.
    co_await sys.sim().sleep(2 * sim::kSecond);
    auto st = sys.gvdb().states().peek(obj);
    std::sort(st.begin(), st.end());
    EXPECT_EQ(st, (std::vector<sim::NodeId>{3, 4}));  // same set as cached...
    EXPECT_GT(sys.gvdb().states().epoch_of(obj), st_epoch_cached);  // ...new epoch
    {
      auto txn = a->begin();
      EXPECT_TRUE((co_await txn->invoke(obj, "withdraw", i64_buf(30), LockMode::Write)).ok());
      Status s = co_await txn->commit();
      EXPECT_FALSE(s.ok());
      EXPECT_EQ(s.error(), Err::StaleView);
    }
    {
      auto txn = a->begin();
      EXPECT_TRUE((co_await txn->invoke(obj, "withdraw", i64_buf(30), LockMode::Write)).ok());
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
  }(sys, a, b, obj));
  sys.sim().run();

  EXPECT_GE(sys.gvdb().counters().get("ostdb.validate_stale"), 1u);
  // Both stores converge on the final committed balance.
  for (sim::NodeId n : {3u, 4u}) {
    BankAccount acct;
    (void)acct.restore(std::move(sys.store_at(n).read(obj).value().state));
    EXPECT_EQ(acct.balance(), 80) << "store " << n;
  }
}

// A naming-node restart loses in-memory epoch bumps (the persisted ones
// reload), so epoch numbers alone cannot be trusted across it. The
// incarnation pairing makes every pre-crash cache entry stale.
TEST(ViewCache, NamingRestartInvalidatesByIncarnation) {
  ReplicaSystem sys{cached_cfg(8, 15)};
  const Uid obj = sys.define_object("o", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  auto* a = sys.client(1);
  sys.sim().spawn([](ReplicaSystem& sys, ClientSession* a, Uid obj) -> sim::Task<> {
    {
      auto txn = a->begin();
      EXPECT_TRUE((co_await txn->invoke(obj, "deposit", i64_buf(100), LockMode::Write)).ok());
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
    sys.cluster().node(0).crash();
    co_await sys.sim().sleep(100 * sim::kMillisecond);
    sys.cluster().node(0).recover();
    co_await sys.sim().sleep(100 * sim::kMillisecond);
    {
      auto txn = a->begin();
      EXPECT_TRUE((co_await txn->invoke(obj, "withdraw", i64_buf(30), LockMode::Write)).ok());
      Status s = co_await txn->commit();
      EXPECT_FALSE(s.ok());
      EXPECT_EQ(s.error(), Err::StaleView);
    }
    {
      auto txn = a->begin();
      EXPECT_TRUE((co_await txn->invoke(obj, "withdraw", i64_buf(30), LockMode::Write)).ok());
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
  }(sys, a, obj));
  sys.sim().run();

  EXPECT_GE(sys.gvdb().counters().get("gvdb.validate_stale_incarnation"), 1u);
  BankAccount acct;
  (void)acct.restore(std::move(sys.store_at(3).read(obj).value().state));
  EXPECT_EQ(acct.balance(), 70);
}

// Determinism guard: with no faults, the cache is a pure message-count
// optimisation — per-transaction outcomes and final state must be
// identical with the cache on and off.
TEST(ViewCache, CacheOnVsOffGivesIdenticalOutcomes) {
  auto run_once = [](bool cached) {
    SystemConfig cfg;
    cfg.nodes = 8;
    cfg.seed = 99;
    cfg.view_cache = cached;
    ReplicaSystem sys{cfg};
    const Uid obj = sys.define_object("o", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                      ReplicationPolicy::SingleCopyPassive, 1);
    auto* client = sys.client(1);
    std::vector<int> outcomes;
    sys.sim().spawn([](ClientSession* client, Uid obj, std::vector<int>& outcomes)
                        -> sim::Task<> {
      Rng rng{424242};
      for (int i = 0; i < 10; ++i) {
        const bool deposit = rng.bernoulli(0.6);
        const std::int64_t amount = 1 + static_cast<std::int64_t>(rng.uniform(40));
        auto txn = client->begin();
        auto r = co_await txn->invoke(obj, deposit ? "deposit" : "withdraw", i64_buf(amount),
                                      LockMode::Write);
        if (!r.ok()) {
          (void)co_await txn->abort();
          outcomes.push_back(-1);
        } else {
          outcomes.push_back((co_await txn->commit()).ok() ? 1 : 0);
        }
      }
    }(client, obj, outcomes));
    sys.sim().run();
    BankAccount acct;
    (void)acct.restore(std::move(sys.store_at(3).read(obj).value().state));
    return std::pair<std::vector<int>, std::int64_t>{outcomes, acct.balance()};
  };

  const auto with_cache = run_once(true);
  const auto without = run_once(false);
  EXPECT_EQ(with_cache.first, without.first);
  EXPECT_EQ(with_cache.second, without.second);
  EXPECT_EQ(with_cache.first.size(), 10u);
}

// The cached bind joins each server to the replica group in its activate
// call, as the uncached bind does: a server that activates but cannot
// join (cut off from the member already in the group) is not bound.
TEST(ViewCache, ServerThatCannotJoinTheGroupIsNotBound) {
  ReplicaSystem sys{cached_cfg(8, 13)};
  const Uid obj = sys.define_object("o", "bank", BankAccount{}.snapshot(), {2, 3}, {4, 5},
                                    ReplicationPolicy::Active, 2);
  sys.net().set_reachable(2, 3, false);
  sys.net().set_reachable(3, 2, false);
  std::vector<sim::NodeId> bound;
  sys.sim().spawn([](ReplicaSystem& sys, Uid obj, std::vector<sim::NodeId>& bound) -> sim::Task<> {
    auto txn = sys.client(1)->begin();
    EXPECT_TRUE((co_await txn->invoke(obj, "deposit", i64_buf(10), LockMode::Write)).ok());
    bound = txn->bindings().at(obj).bind.servers;
    EXPECT_TRUE(txn->bindings().at(obj).cached);
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(sys, obj, bound));
  sys.sim().run();
  EXPECT_EQ(bound, (std::vector<sim::NodeId>{2}));
  EXPECT_EQ(sys.gc().members(obj), (std::vector<sim::NodeId>{2}));
  Counters all = sys.aggregate_counters();
  EXPECT_EQ(all.get("objsrv.join_refused"), 1u);
  EXPECT_EQ(all.get("activate.join_failed"), 1u);
  EXPECT_EQ(all.get("activate.cached_probe_failure"), 0u);
}

}  // namespace
}  // namespace gv::core
