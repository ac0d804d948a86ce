// Tests for the KvTable state machine and the passivation / on-demand
// re-activation life cycle (sec 2.3(3)), plus the coordinator-log
// behaviours not covered by the store-level in-doubt tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "actions/coordinator_log.h"
#include "core/audit.h"
#include "core/system.h"

namespace gv {
namespace {

using core::LockMode;
using core::ReplicaSystem;
using core::ReplicationPolicy;
using core::SystemConfig;
using replication::KvTable;

Buffer kv2(const std::string& k, const std::string& v) {
  Buffer b;
  b.pack_string(k).pack_string(v);
  return b;
}

Buffer kv1(const std::string& k) {
  Buffer b;
  b.pack_string(k);
  return b;
}

// ------------------------------------------------------------- KvTable

TEST(KvTable, PutGetEraseSize) {
  KvTable t;
  bool modified = false;
  auto r = t.apply("put", kv2("a", "1"), modified);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(modified);
  EXPECT_TRUE(r.value().unpack_bool().value());  // inserted
  r = t.apply("put", kv2("a", "2"), modified);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().unpack_bool().value());  // overwritten
  r = t.apply("get", kv1("a"), modified);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(modified);
  EXPECT_EQ(r.value().unpack_string().value(), "2");
  EXPECT_EQ(t.apply("get", kv1("zz"), modified).error(), Err::NotFound);
  r = t.apply("erase", kv1("a"), modified);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(modified);
  // Erasing a missing key is NOT a modification (read-only commit path).
  r = t.apply("erase", kv1("a"), modified);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(modified);
  EXPECT_EQ(t.size(), 0u);
}

TEST(KvTable, SnapshotRestoreRoundTrip) {
  KvTable a;
  bool modified;
  (void)a.apply("put", kv2("x", "1"), modified);
  (void)a.apply("put", kv2("y", "2"), modified);
  KvTable b;
  ASSERT_TRUE(b.restore(a.snapshot()).ok());
  EXPECT_EQ(b.size(), 2u);
  auto r = b.apply("get", kv1("y"), modified);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().unpack_string().value(), "2");
  EXPECT_EQ(a.snapshot().checksum(), b.snapshot().checksum());
}

TEST(KvTable, UnknownOpRefused) {
  KvTable t;
  bool modified;
  EXPECT_EQ(t.apply("frobnicate", Buffer{}, modified).error(), Err::NotFound);
}

// -------------------------------------------------- passivation cycle

struct Sys {
  ReplicaSystem sys;
  explicit Sys(SystemConfig cfg = {}) : sys(cfg) {}
  template <typename F>
  void run(F&& body) {
    sys.sim().spawn(std::forward<F>(body));
    sys.sim().run();
  }
};

TEST(Passivation, QuiescentObjectPassivatesAndReactivates) {
  Sys s{SystemConfig{.nodes = 8}};
  Uid dir = s.sys.define_object("dir", "kv", KvTable{}.snapshot(), {2}, {4, 5},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  s.run([](core::ClientSession* client, Uid dir) -> sim::Task<> {
    auto txn = client->begin();
    (void)co_await txn->invoke(dir, "put", kv2("k", "v"), LockMode::Write);
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(client, dir));

  ASSERT_TRUE(s.sys.host_at(2).is_active(dir));
  EXPECT_TRUE(s.sys.host_at(2).passivate(dir).ok());
  EXPECT_FALSE(s.sys.host_at(2).is_active(dir));

  // Next use re-activates from the stores with the committed state.
  s.run([](core::ClientSession* client, Uid dir) -> sim::Task<> {
    auto txn = client->begin();
    auto r = co_await txn->invoke(dir, "get", kv1("k"), LockMode::Read);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r.value().unpack_string().value(), "v");
    }
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(client, dir));
  EXPECT_TRUE(s.sys.host_at(2).is_active(dir));
}

TEST(Passivation, RefusedWhileActionInFlight) {
  Sys s{SystemConfig{.nodes = 8}};
  Uid dir = s.sys.define_object("dir", "kv", KvTable{}.snapshot(), {2}, {4},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  s.run([](Sys& s, core::ClientSession* client, Uid dir) -> sim::Task<> {
    auto txn = client->begin();
    (void)co_await txn->invoke(dir, "put", kv2("k", "v"), LockMode::Write);
    // Mid-action: the object holds a before-image and a write lock.
    EXPECT_EQ(s.sys.host_at(2).passivate(dir).error(), Err::NotQuiescent);
    EXPECT_TRUE((co_await txn->commit()).ok());
    // After commit it is quiescent again.
    EXPECT_TRUE(s.sys.host_at(2).passivate(dir).ok());
  }(s, client, dir));
}

// --------------------------------------------------- CoordinatorLog

TEST(CoordinatorLog, RecordsAndAnswersOutcomes) {
  sim::Simulator sim{3};
  sim::Cluster cluster{sim};
  cluster.add_nodes(3);
  sim::Network net{sim, cluster};
  rpc::RpcFabric fabric{cluster, net};
  actions::CoordinatorLog log{fabric.endpoint(0)};

  Uid committed{1, 1}, aborted{1, 2}, unknown{1, 3};
  log.record(committed, true);
  log.record(aborted, false);
  EXPECT_EQ(log.outcome(committed), actions::TxnOutcome::Committed);
  EXPECT_EQ(log.outcome(aborted), actions::TxnOutcome::Aborted);
  EXPECT_EQ(log.outcome(unknown), actions::TxnOutcome::Unknown);

  // Remote queries see the same answers.
  std::vector<actions::TxnOutcome> got;
  sim.spawn([](rpc::RpcFabric& fabric, Uid a, Uid b, Uid c,
               std::vector<actions::TxnOutcome>& got) -> sim::Task<> {
    for (Uid txn : {a, b, c}) {
      auto r = co_await actions::CoordinatorLog::remote_outcome(fabric.endpoint(1), 0, txn);
      EXPECT_TRUE(r.ok());
      got.push_back(r.ok() ? r.value() : actions::TxnOutcome::Unknown);
    }
  }(fabric, committed, aborted, unknown, got));
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], actions::TxnOutcome::Committed);
  EXPECT_EQ(got[1], actions::TxnOutcome::Aborted);
  EXPECT_EQ(got[2], actions::TxnOutcome::Unknown);
}

TEST(CoordinatorLog, StableAcrossCrash) {
  sim::Simulator sim{3};
  sim::Cluster cluster{sim};
  cluster.add_nodes(2);
  sim::Network net{sim, cluster};
  rpc::RpcFabric fabric{cluster, net};
  actions::CoordinatorLog log{fabric.endpoint(0)};
  const Uid txn{1, 1};
  log.record(txn, true);
  log.record_excluded(txn, 1);
  cluster.node(0).crash();
  cluster.node(0).recover();
  // The decisions outlive the incarnation that made them: a participant
  // that missed phase 2 still learns them.
  EXPECT_EQ(log.outcome(txn), actions::TxnOutcome::Committed);
  EXPECT_EQ(log.shadow_outcome(txn, 1), actions::TxnOutcome::Aborted);
  EXPECT_EQ(log.shadow_outcome(txn, 2), actions::TxnOutcome::Committed);
}

// End-to-end regression for the in-doubt window: the sole store crashes
// between the commit decision and phase 2; after recovery it must learn
// the outcome from the (system-wired) coordinator log and install the
// committed state instead of presuming abort.
TEST(CoordinatorLog, EndToEndInDoubtCommitRecovered) {
  Sys s{SystemConfig{.nodes = 8}};
  Uid obj = s.sys.define_object("c", "counter", replication::Counter{}.snapshot(), {2}, {4},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);

  // Watchdog: the moment the coordinator records the CLIENT action's
  // commit decision, kill the store — its phase-2 commit RPC (>=500us
  // network latency) can no longer arrive. It is the client's first
  // decision: the binder's action commits at the naming node.
  s.sys.sim().spawn([](core::ReplicaSystem& sys, core::ClientSession* client) -> sim::Task<> {
    while (client->runtime().counters().get("action.committed_top") < 1)
      co_await sys.sim().sleep(50);  // 50us polling, well under latency
    sys.cluster().node(4).crash();
  }(s.sys, client));

  bool committed = false;
  s.run([](core::ClientSession* client, Uid obj, bool& committed) -> sim::Task<> {
    auto txn = client->begin();
    Buffer one;
    one.pack_i64(1);
    (void)co_await txn->invoke(obj, "add", std::move(one), LockMode::Write);
    committed = (co_await txn->commit()).ok();
  }(client, obj, committed));
  ASSERT_TRUE(committed);  // the client saw its commit succeed

  // The store is down holding an in-doubt shadow; v2 not yet installed.
  EXPECT_EQ(s.sys.store_at(4).version(obj).value_or(0), 1u);
  EXPECT_EQ(s.sys.store_at(4).in_doubt_count(), 0u);  // marked at recovery

  s.sys.cluster().node(4).recover();
  s.sys.sim().run();  // resolver asks the coordinator -> Committed

  EXPECT_EQ(s.sys.store_at(4).counters().get("store.in_doubt_committed"), 1u);
  s.sys.store_at(4).clear_suspect(obj);
  auto r = s.sys.store_at(4).read(obj);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().version, 2u);  // the decided commit was NOT lost
}

// A store's accepted shadow write is its Yes vote, so a store that
// crashes between its staging reply and phase 2 no longer aborts the
// action: the action commits, and the store, on recovery, learns the
// decision from the coordinator log and installs the state.
TEST(CoordinatorLog, StoreCrashAfterStagingStillInstalls) {
  Sys s{SystemConfig{.nodes = 8}};
  Uid obj = s.sys.define_object("c", "counter", replication::Counter{}.snapshot(), {2}, {3, 4},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  core::InvariantAuditor audit{s.sys};
  audit.track(obj);

  // The moment store 4 accepts the shadow write (it answers in the same
  // event), kill it: its reply is on the wire, and phase 2 cannot reach it.
  s.sys.sim().spawn([](core::ReplicaSystem& sys) -> sim::Task<> {
    while (sys.store_at(4).counters().get("store.prepare") < 1) co_await sys.sim().sleep(50);
    sys.cluster().node(4).crash();
  }(s.sys));

  bool committed = false;
  s.sys.sim().spawn([](core::ClientSession* client, Uid obj, bool& committed) -> sim::Task<> {
    auto txn = client->begin();
    Buffer one;
    one.pack_i64(1);
    (void)co_await txn->invoke(obj, "add", std::move(one), LockMode::Write);
    committed = (co_await txn->commit()).ok();
  }(client, obj, committed));
  s.sys.sim().run_until(s.sys.sim().now() + 2 * sim::kSecond);
  ASSERT_TRUE(committed);
  EXPECT_EQ(s.sys.store_at(3).read(obj).value().version, 2u);
  EXPECT_EQ(s.sys.store_at(4).version(obj).value_or(0), 1u);  // not yet installed

  s.sys.cluster().node(4).recover();
  s.sys.sim().run();
  EXPECT_EQ(s.sys.store_at(4).counters().get("store.in_doubt_committed"), 1u);
  EXPECT_EQ(s.sys.store_at(4).version(obj).value_or(0), 2u);
  EXPECT_EQ(s.sys.gvdb().states().peek(obj), (std::vector<sim::NodeId>{3, 4}));
  EXPECT_EQ(audit.check_now(/*quiescent=*/true), 0u) << audit.report();
}

// Phase 2 reaches one participant at a time, so a coordinator that dies in
// the middle of it has told only some of them the decision. Its log of
// decisions is stable: the stores that missed phase 2 ask the recovered
// coordinator about their in-doubt shadows, hear Committed and install,
// so the next writer builds on the committed +1 that a reader saw. The
// coordinator stays down for `down`; a store that hears nothing from it
// meanwhile keeps its shadow in doubt and asks again.
void decided_commit_survives_coordinator_crash(sim::SimTime down) {
  SystemConfig cfg{.nodes = 8};
  cfg.start_janitor = true;
  cfg.start_store_reaper = true;
  Sys s{cfg};
  Uid obj = s.sys.define_object("c", "counter", replication::Counter{}.snapshot(), {2}, {3, 4},
                                ReplicationPolicy::SingleCopyPassive, 1);
  sim::Simulator& sim = s.sys.sim();

  // The moment server 2 applies phase 2, kill the client, which is the
  // coordinator: phase 2 has yet to reach the stores.
  sim.spawn([](core::ReplicaSystem& sys, sim::SimTime down) -> sim::Task<> {
    while (sys.host_at(2).counters().get("objsrv.txn_commit") < 1) co_await sys.sim().sleep(50);
    sys.cluster().node(1).crash();
    co_await sys.sim().sleep(down);
    sys.cluster().node(1).recover();
  }(s.sys, down));
  // Adds `delta`, keeping the sum it read, and commits.
  struct Add {
    std::int64_t sum = -1;
    bool committed = false;
  };
  auto add = [](core::ClientSession* client, Uid obj, std::int64_t delta,
                Add& out) -> sim::Task<> {
    auto txn = client->begin();
    Buffer arg;
    arg.pack_i64(delta);
    auto r = co_await txn->invoke(obj, "add", std::move(arg), LockMode::Write);
    if (!r.ok()) co_return;
    out.sum = r.value().unpack_i64().value();
    out.committed = (co_await txn->commit()).ok();
  };
  Add first, written;
  std::int64_t read = -1;
  sim.spawn(add(s.sys.client(1), obj, 1, first));
  sim.run_until(sim.now() + sim::kSecond);
  EXPECT_FALSE(first.committed);  // the client died before its commit() returned
  EXPECT_EQ(s.sys.store_at(3).version(obj).value_or(0), 1u);
  EXPECT_EQ(s.sys.store_at(4).version(obj).value_or(0), 1u);

  sim.spawn([](core::ClientSession* client, Uid obj, std::int64_t& read) -> sim::Task<> {
    auto txn = client->begin();
    auto r = co_await txn->invoke(obj, "read", Buffer{}, LockMode::Read);
    if (r.ok() && (co_await txn->commit()).ok()) read = r.value().unpack_i64().value();
  }(s.sys.client(5), obj, read));
  // The stores' reapers find the aged shadows and ask the coordinator
  // until it has recovered and answers.
  sim.run_until(sim.now() + std::max(4 * sim::kSecond, down + 3 * sim::kSecond));
  EXPECT_EQ(read, 1);
  for (sim::NodeId store : {3u, 4u}) {
    EXPECT_EQ(s.sys.store_at(store).counters().get("store.in_doubt_committed"), 1u) << store;
    EXPECT_EQ(s.sys.store_at(store).counters().get("store.in_doubt_presumed_abort"), 0u)
        << store;
    EXPECT_EQ(s.sys.store_at(store).version(obj).value_or(0), 2u) << store;
  }

  s.sys.cluster().node(2).crash();
  s.sys.cluster().node(2).recover();
  sim.run_until(sim.now() + sim::kSecond);
  sim.spawn(add(s.sys.client(6), obj, 10, written));
  sim.run_until(sim.now() + 2 * sim::kSecond);
  EXPECT_EQ(written.sum, 11);
  EXPECT_TRUE(written.committed);
}

TEST(CoordinatorLog, DecidedCommitSurvivesCoordinatorCrash) {
  decided_commit_survives_coordinator_crash(500 * sim::kMillisecond);
}

// Down for longer than a store's in-doubt retries last: the store must not
// presume abort of a shadow whose coordinator never answered.
TEST(CoordinatorLog, DecidedCommitSurvivesLongCoordinatorOutage) {
  decided_commit_survives_coordinator_crash(10 * sim::kSecond);
}

// A store whose prepare reply was lost holds the new state's shadow, but
// the commit processor Excluded it from St and enlisted no copy of it, so
// no phase 2 reaches it. When it recovers and asks the coordinator about
// its in-doubt shadow, it must hear Aborted: installing the committed
// state there would put it outside St.
TEST(CoordinatorLog, ExcludedStoreDiscardsItsInDoubtShadow) {
  Sys s{SystemConfig{.nodes = 8}};
  Uid obj = s.sys.define_object("c", "counter", replication::Counter{}.snapshot(), {2}, {3, 4},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  s.sys.net().set_reachable(4, 1, false);  // store 4's replies to the client are lost

  bool committed = false;
  s.run([](core::ClientSession* client, Uid obj, bool& committed) -> sim::Task<> {
    auto txn = client->begin();
    Buffer one;
    one.pack_i64(1);
    (void)co_await txn->invoke(obj, "add", std::move(one), LockMode::Write);
    committed = (co_await txn->commit()).ok();
  }(client, obj, committed));
  ASSERT_TRUE(committed);
  EXPECT_EQ(s.sys.gvdb().states().peek(obj), (std::vector<sim::NodeId>{3}));
  EXPECT_TRUE(s.sys.store_at(4).has_pending_shadow(obj));  // the prepare landed

  s.sys.net().set_reachable(4, 1, true);
  s.sys.cluster().node(4).crash();
  s.sys.cluster().node(4).recover();
  s.sys.sim().run();

  EXPECT_EQ(s.sys.store_at(4).counters().get("store.in_doubt_committed"), 0u);
  EXPECT_EQ(s.sys.store_at(4).counters().get("store.in_doubt_aborted"), 1u);
  EXPECT_FALSE(s.sys.store_at(4).has_pending_shadow(obj));
}

}  // namespace
}  // namespace gv
