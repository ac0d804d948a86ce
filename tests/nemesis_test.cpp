// Nemesis / auditor tests: the fault-injection subsystem itself, and the
// targeted failure scenarios it makes expressible — most importantly the
// double failure (client node AND a store node crash mid-action) that
// exercises the UseListJanitor and the naming databases' orphan-action
// cleanup together.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/audit.h"
#include "core/nemesis.h"
#include "core/system.h"
#include "replication/state_machine.h"

namespace gv::core {
namespace {

using replication::Counter;

Buffer i64_buf(std::int64_t v) {
  Buffer b;
  b.pack_i64(v);
  return b;
}

// ------------------------------------------------------------ determinism

// Same seed, same construction order -> byte-identical fault schedules.
// This is the property every "replay the violation" campaign report rests
// on; a nemesis that consulted any RNG outside the simulation tree would
// break it.
TEST(Nemesis, ScheduleIsDeterministicInTheSeed) {
  auto run_once = [](std::uint64_t seed) {
    SystemConfig cfg;
    cfg.nodes = 8;
    cfg.seed = seed;
    ReplicaSystem sys{cfg};
    NemesisSuite suite;
    suite.add(std::make_unique<CrashNemesis>(
        sys.sim(), sys.cluster(),
        CrashNemesisConfig{500 * sim::kMillisecond, 200 * sim::kMillisecond, {2, 3}}));
    suite.add(std::make_unique<PartitionNemesis>(
        sys.sim(), sys.cluster(), sys.net(),
        PartitionNemesisConfig{700 * sim::kMillisecond, 200 * sim::kMillisecond, {4, 5}, 2}));
    NetChaosNemesisConfig net_cfg;
    net_cfg.burst_loss_prob = 0.2;
    suite.add(std::make_unique<NetChaosNemesis>(sys.sim(), sys.net(), net_cfg));
    suite.start_all();
    sys.sim().run_until(5 * sim::kSecond);
    suite.stop_all();
    sys.sim().run_until(8 * sim::kSecond);  // let in-flight faults heal
    return suite.dump();
  };

  const std::string a = run_once(42);
  const std::string b = run_once(42);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // And the schedule is actually seed-sensitive, not constant.
  EXPECT_NE(a, run_once(43));
}

// --------------------------------------------------------- double failure

// The satellite scenario: a store node crashes mid-action (the committing
// client Excludes it), then a SECOND client crashes mid-action while
// holding naming locks and use-list entries, and the janitor's next ping
// target is exactly that dead client. Cleanup must compose:
//
//   - the janitor purges the dead client's use-list counters,
//   - the recovering store's Include hits the dead client's St read lock,
//     which triggers the naming orphan sweep (owner dead -> abort), after
//     which the next repair pass re-Includes and refreshes the store,
//   - the system ends quiescent with a consistent view.
TEST(Nemesis, DoubleFailureJanitorAndOrphanCleanupCompose) {
  SystemConfig cfg;
  cfg.nodes = 8;
  cfg.seed = 7;
  cfg.start_janitor = true;
  ReplicaSystem sys{cfg};
  const Uid obj = sys.define_object("o", "counter", Counter{}.snapshot(), {3}, {2, 4},
                                    ReplicationPolicy::SingleCopyPassive, 1);

  // Client A (node 6): invokes, then commits at ~800ms — AFTER store 2
  // has crashed, so the commit Excludes it and installs v2 at store 4.
  auto* a = sys.client(6);
  sys.sim().spawn([](ReplicaSystem& sys, ClientSession* a, Uid obj) -> sim::Task<> {
    auto txn = a->begin();
    (void)co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write);
    co_await sys.sim().sleep(800 * sim::kMillisecond);
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(sys, a, obj));

  // Client B (node 7): binds at 900ms — holding the St-entry read lock
  // and fresh use-list entries — and its node dies mid-action at 1.1s.
  auto* b = sys.client(7);
  sys.sim().spawn([](ReplicaSystem& sys, ClientSession* b, Uid obj) -> sim::Task<> {
    co_await sys.sim().sleep(900 * sim::kMillisecond);
    auto txn = b->begin();
    (void)co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write);
    co_await sys.sim().sleep(3 * sim::kSecond);
    (void)co_await txn->abort();  // node long dead; fails, ignored
  }(sys, b, obj));

  NemesisSuite suite;
  auto& script = suite.add(std::make_unique<ScriptedNemesis>(
      sys.sim(),
      std::vector<ScriptedNemesis::Step>{
          {600 * sim::kMillisecond, "crash store node 2",
           [&sys] { sys.cluster().node(2).crash(); }},
          {1100 * sim::kMillisecond, "crash client node 7 mid-action",
           [&sys] { sys.cluster().node(7).crash(); }},
          {1500 * sim::kMillisecond, "recover store node 2",
           [&sys] { sys.cluster().node(2).recover(); }},
      }));
  suite.start_all();

  sys.sim().run_until(6 * sim::kSecond);
  suite.stop_all();
  sys.janitor().stop();
  sys.sim().run();

  EXPECT_EQ(script.injected(), 3u);

  // Store 2 was Excluded by A's commit, then re-Included and refreshed by
  // its recovery daemon once the orphan sweep freed B's dead read lock.
  auto st = sys.gvdb().states().peek(obj);
  std::sort(st.begin(), st.end());
  EXPECT_EQ(st, (std::vector<sim::NodeId>{2, 4}));
  EXPECT_EQ(sys.store_at(2).read(obj).value().version, 2u);
  EXPECT_GE(sys.recovery_at(2).counters().get("recovery.included"), 1u);

  // The janitor detected dead client 7 and purged its counters.
  EXPECT_TRUE(sys.gvdb().servers().clients_in_use().empty());
  EXPECT_GE(sys.janitor().counters().get("janitor.purged"), 1u);

  // The naming orphan sweep is what unblocked the Include: B's action was
  // aborted because its owner node was dead, not because it aged out.
  EXPECT_GE(sys.gvdb().counters().get("db.orphan_owner_dead"), 1u);
}

// ------------------------------------------------- stale staging state

// A store that missed a decided commit's phase 2 still answers reads with
// the version before it. A server activated from that store holds stale
// state, and staging it reaches a store that already holds the commit.
// That store is ahead, not failed: the action must abort and the stale
// replica retire, instead of Excluding the only holder of the committed
// update and installing over it (found by the gv_campaign netchaos and
// everything mixes).
TEST(StaleStaging, StoreAheadOfStagedStateAbortsInsteadOfExcluding) {
  SystemConfig cfg;
  cfg.nodes = 8;
  cfg.seed = 11;
  ReplicaSystem sys{cfg};
  const Uid obj = sys.define_object("o", "counter", Counter{}.snapshot(), {2}, {5, 6},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = sys.client(1);

  // The moment the client decides to commit its action (its first
  // decision: the bind commits at the naming node), cut it off from
  // store 5: phase 2 reaches store 6 only, and store 5 keeps the commit
  // as a pending shadow.
  sys.sim().spawn([](ReplicaSystem& sys, ClientSession* client) -> sim::Task<> {
    while (client->runtime().counters().get("action.committed_top") < 1)
      co_await sys.sim().sleep(50);  // 50us polling, well under latency
    sys.net().set_reachable(1, 5, false);
  }(sys, client));

  bool second_committed = true;
  sys.sim().spawn([](ReplicaSystem& sys, ClientSession* client, Uid obj,
                     bool& second_committed) -> sim::Task<> {
    auto first = client->begin();
    EXPECT_TRUE((co_await first->invoke(obj, "add", i64_buf(1), LockMode::Write)).ok());
    EXPECT_TRUE((co_await first->commit()).ok());
    sys.net().set_reachable(1, 5, true);
    // The server lets go of the object; its next activation reads store
    // 5 first, which still answers with v1.
    EXPECT_TRUE(sys.host_at(2).passivate(obj).ok());
    auto second = client->begin();
    EXPECT_TRUE((co_await second->invoke(obj, "add", i64_buf(10), LockMode::Write)).ok());
    second_committed = (co_await second->commit()).ok();
  }(sys, client, obj, second_committed));
  sys.sim().run_until(2 * sim::kSecond);

  // Phase 2 never came to store 5: the second action's prepare there met
  // the first's pending shadow, was refused, and made store 5 ask the
  // coordinator, which answered committed.
  EXPECT_EQ(sys.store_at(5).counters().get("store.prepare_behind_shadow"), 1u);
  EXPECT_EQ(sys.store_at(5).counters().get("store.in_doubt_committed"), 1u);
  EXPECT_EQ(sys.store_at(5).read(obj).value().version, 2u);
  EXPECT_FALSE(second_committed);
  // Store 6 keeps the first commit and stays in St.
  auto st = sys.gvdb().states().peek(obj);
  std::sort(st.begin(), st.end());
  EXPECT_EQ(st, (std::vector<sim::NodeId>{5, 6}));
  auto six = sys.store_at(6).read(obj);
  ASSERT_TRUE(six.ok());
  EXPECT_EQ(six.value().version, 2u);
  Counter committed;
  ASSERT_TRUE(committed.restore(six.value().state).ok());
  EXPECT_EQ(committed.value(), 1);
  // The stale replica was retired, so the next bind reloads.
  EXPECT_FALSE(sys.host_at(2).is_active(obj));
}

// ------------------------------------------------- a dead store at commit

// A store that is down when an action commits costs the staging one
// call timeout, whatever the number of objects it holds: the action
// sends it one prepare carrying both objects. Both objects then Exclude
// it in one batched ostdb.exclude, and commit at the other two stores.
TEST(DeadStore, TwoObjectCommitSpendsOneTimeoutAndOneExclude) {
  SystemConfig cfg;
  cfg.nodes = 8;
  cfg.seed = 12;
  ReplicaSystem sys{cfg};
  const Uid a = sys.define_object("a", "counter", Counter{}.snapshot(), {2}, {5, 6, 7},
                                  ReplicationPolicy::SingleCopyPassive, 1);
  const Uid b = sys.define_object("b", "counter", Counter{}.snapshot(), {2}, {5, 6, 7},
                                  ReplicationPolicy::SingleCopyPassive, 1);
  bool committed = false;
  sys.sim().spawn([](ReplicaSystem& sys, Uid a, Uid b, bool& committed) -> sim::Task<> {
    auto txn = sys.client(1)->begin();
    EXPECT_TRUE((co_await txn->invoke(a, "add", i64_buf(1), LockMode::Write)).ok());
    EXPECT_TRUE((co_await txn->invoke(b, "add", i64_buf(2), LockMode::Write)).ok());
    sys.cluster().node(6).crash();
    committed = (co_await txn->commit()).ok();
  }(sys, a, b, committed));
  sys.sim().run_until(2 * sim::kSecond);
  EXPECT_TRUE(committed);

  const auto& h = sys.metrics().histograms();
  auto stage = h.find("commit.stage_us");
  ASSERT_NE(stage, h.end());
  ASSERT_EQ(stage->second.count(), 1u);
  const auto timeout = static_cast<double>(sys.config().rpc.call_timeout);
  EXPECT_GE(stage->second.max(), timeout);
  EXPECT_LT(stage->second.max(), 2 * timeout);
  auto excludes = h.find("rpc.ostdb.exclude_us");
  ASSERT_NE(excludes, h.end());
  EXPECT_EQ(excludes->second.count(), 1u);
  for (const Uid& obj : {a, b}) {
    EXPECT_EQ(sys.gvdb().states().peek(obj), (std::vector<sim::NodeId>{5, 7}));
    EXPECT_EQ(sys.store_at(5).read(obj).value().version, 2u);
    EXPECT_EQ(sys.store_at(7).read(obj).value().version, 2u);
  }
}

// ------------------------------------------------- a torn shadow write

// A shadow write that lands torn is found when the store writes it: the
// store answers that write StorageFault, so staging Excludes the store
// like one whose copy failed, and the action commits at the others. The
// torn write is not kept, so a crash before phase 2 leaves no shadow of
// it for recovery to resolve.
TEST(TornShadow, TornWriteIsRefusedAndItsStoreExcluded) {
  SystemConfig cfg;
  cfg.nodes = 8;
  cfg.seed = 13;
  ReplicaSystem sys{cfg};
  const Uid obj = sys.define_object("o", "counter", Counter{}.snapshot(), {2}, {5, 6},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  sys.store_at(6).set_faults(store::StoreFaultConfig{0.0, 1.0}, /*seed=*/7);
  bool committed = false;
  sys.sim().spawn([](ReplicaSystem& sys, Uid obj, bool& committed) -> sim::Task<> {
    auto txn = sys.client(1)->begin();
    EXPECT_TRUE((co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write)).ok());
    committed = (co_await txn->commit()).ok();
  }(sys, obj, committed));
  sys.sim().run_until(2 * sim::kSecond);

  EXPECT_TRUE(committed);
  EXPECT_EQ(sys.store_at(6).counters().get("store.fault_torn_shadow"), 1u);
  EXPECT_EQ(sys.gvdb().states().peek(obj), (std::vector<sim::NodeId>{5}));
  EXPECT_EQ(sys.store_at(5).read(obj).value().version, 2u);
  EXPECT_FALSE(sys.store_at(6).has_pending_shadow(obj));

  sys.store_at(6).clear_faults();
  sys.cluster().node(6).crash();
  sys.cluster().node(6).recover();
  sys.sim().run_until(sys.sim().now() + 2 * sim::kSecond);
  EXPECT_EQ(sys.store_at(6).counters().get("store.in_doubt_shadow"), 0u);
  EXPECT_EQ(sys.store_at(6).counters().get("store.in_doubt_committed"), 0u);
}

// ---------------------------------------------------------------- auditor

TEST(Auditor, FlagsEscapedViewState) {
  SystemConfig cfg;
  cfg.nodes = 8;
  ReplicaSystem sys{cfg};
  const Uid obj = sys.define_object("o", "counter", Counter{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  InvariantAuditor audit{sys};
  audit.track(obj);
  EXPECT_EQ(audit.check_now(false), 0u);
  EXPECT_TRUE(audit.ok());

  // Plant the exact corruption the invariant exists for: a committed
  // version on a node OUTSIDE St that is newer than everything inside.
  (void)sys.store_at(5).write_direct(obj, /*version=*/9, Counter{}.snapshot());
  EXPECT_GE(audit.check_now(false), 1u);
  EXPECT_FALSE(audit.ok());
  ASSERT_FALSE(audit.violations().empty());
  EXPECT_EQ(audit.violations().front().invariant, "escaped-view");
  EXPECT_FALSE(audit.report().empty());
}

TEST(Auditor, CleanChaosRunPassesStrictQuiescentAudit) {
  SystemConfig cfg;
  cfg.nodes = 10;
  cfg.seed = 99;
  ReplicaSystem sys{cfg};
  const Uid acct = sys.define_object("acct", "bank", replication::BankAccount{}.snapshot(),
                                     {2, 3}, {5, 6, 7}, ReplicationPolicy::Active, 2);

  InvariantAuditor audit{sys};
  audit.track(acct);
  std::int64_t committed_delta = 0;
  audit.add_conservation_check("money-conservation", [&sys, acct, &committed_delta]()
                                   -> std::optional<std::string> {
    for (sim::NodeId n : sys.gvdb().states().peek(acct)) {
      auto r = sys.store_at(n).read(acct);
      if (!r.ok()) continue;
      replication::BankAccount check;
      (void)check.restore(std::move(r.value().state));
      if (check.balance() != committed_delta)
        return "balance " + std::to_string(check.balance()) + " != committed delta " +
               std::to_string(committed_delta);
      return std::nullopt;
    }
    return "no readable St member";
  });
  audit.start(300 * sim::kMillisecond);

  NemesisSuite suite;
  suite.add(std::make_unique<CrashNemesis>(
      sys.sim(), sys.cluster(),
      CrashNemesisConfig{900 * sim::kMillisecond, 400 * sim::kMillisecond, {2, 3, 5, 6, 7}}));
  suite.start_all();

  auto* client = sys.client(1);
  sys.sim().spawn([](ClientSession* client, Uid acct,
                     std::int64_t& committed_delta) -> sim::Task<> {
    Rng rng{4242};
    for (int i = 0; i < 12; ++i) {
      const bool deposit = rng.bernoulli(0.7);
      const std::int64_t amount = 1 + static_cast<std::int64_t>(rng.uniform(50));
      auto txn = client->begin();
      auto r = co_await txn->invoke(acct, deposit ? "deposit" : "withdraw", i64_buf(amount),
                                    LockMode::Write);
      if (!r.ok()) {
        (void)co_await txn->abort();
      } else if ((co_await txn->commit()).ok()) {
        committed_delta += deposit ? amount : -amount;
      }
      co_await client->runtime().endpoint().node().sim().sleep(40 * sim::kMillisecond);
    }
  }(client, acct, committed_delta));

  sys.sim().run_until(30 * sim::kSecond);
  suite.stop_all();
  audit.stop();
  for (sim::NodeId n : {2u, 3u, 5u, 6u, 7u})
    if (!sys.cluster().up(n)) sys.cluster().node(n).recover();
  sys.sim().run();

  audit.check_now(/*quiescent=*/true);
  EXPECT_GE(audit.checks_run(), 2u);  // periodic mid-run checks did fire
  EXPECT_TRUE(audit.ok()) << audit.report() << suite.dump();
}

}  // namespace
}  // namespace gv::core
