// Tests for the replication layer: object server hosts (activation,
// invocation, before-images), the stock state machines, the activator's
// four Sv/St regimes, commit processing with store exclusion, cohort
// checkpoints, and the recovery daemon.
#include <gtest/gtest.h>

#include "core/audit.h"
#include "core/system.h"

namespace gv::replication {
namespace {

using core::ReplicaSystem;
using core::SystemConfig;
using actions::LockMode;

Buffer i64_buf(std::int64_t v) {
  Buffer b;
  b.pack_i64(v);
  return b;
}

// ----------------------------------------------------- state machines

TEST(StateMachines, BankAccountOps) {
  BankAccount a;
  bool modified = false;
  auto r = a.apply("deposit", i64_buf(100), modified);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(modified);
  EXPECT_EQ(a.balance(), 100);
  r = a.apply("withdraw", i64_buf(30), modified);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(a.balance(), 70);
  // Overdraft refused, state unchanged.
  r = a.apply("withdraw", i64_buf(1000), modified);
  EXPECT_EQ(r.error(), Err::Conflict);
  EXPECT_EQ(a.balance(), 70);
  r = a.apply("balance", Buffer{}, modified);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(modified);
  EXPECT_EQ(r.value().unpack_i64().value(), 70);
}

TEST(StateMachines, SnapshotRestoreRoundTrip) {
  BankAccount a;
  bool modified;
  (void)a.apply("deposit", i64_buf(42), modified);
  BankAccount b;
  EXPECT_TRUE(b.restore(a.snapshot()).ok());
  EXPECT_EQ(b.balance(), 42);

  EventLog l1;
  (void)l1.apply("append", [] { Buffer b; b.pack_string("x"); return b; }(), modified);
  (void)l1.apply("append", [] { Buffer b; b.pack_string("y"); return b; }(), modified);
  EventLog l2;
  EXPECT_TRUE(l2.restore(l1.snapshot()).ok());
  EXPECT_EQ(l1.checksum(), l2.checksum());
}

TEST(StateMachines, EventLogChecksumIsOrderSensitive) {
  EventLog a, b;
  bool modified;
  Buffer x;
  x.pack_string("x");
  Buffer y;
  y.pack_string("y");
  (void)a.apply("append", x, modified);
  (void)a.apply("append", y, modified);
  x.rewind();
  y.rewind();
  Buffer x2;
  x2.pack_string("x");
  Buffer y2;
  y2.pack_string("y");
  (void)b.apply("append", y2, modified);
  (void)b.apply("append", x2, modified);
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(StateMachines, UnknownClassNotConstructible) {
  ClassRegistry reg;
  register_stock_classes(reg);
  EXPECT_TRUE(reg.knows("bank"));
  EXPECT_FALSE(reg.knows("nonesuch"));
  EXPECT_EQ(reg.make("nonesuch"), nullptr);
}

// ------------------------------------------------ end-to-end via system

struct Sys {
  ReplicaSystem sys;
  explicit Sys(SystemConfig cfg = {}) : sys(cfg) {}

  template <typename F>
  void run(F&& body) {
    sys.sim().spawn(std::forward<F>(body));
    sys.sim().run();
  }
};

// |Sv|=|St|=1: the non-replicated regime of fig 2.
TEST(Replication, Fig2UnreplicatedObjectWorks) {
  Sys s;
  Uid obj = s.sys.define_object("acct", "bank", BankAccount{}.snapshot(), {2}, {2},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  bool committed = false;
  s.run([](ReplicaSystem& sys, core::ClientSession* client, Uid obj,
           bool& committed) -> sim::Task<> {
    auto txn = client->begin();
    auto r = co_await txn->invoke(obj, "deposit", i64_buf(10), LockMode::Write);
    EXPECT_TRUE(r.ok());
    committed = (co_await txn->commit()).ok();
    (void)sys;
  }(s.sys, client, obj, committed));
  EXPECT_TRUE(committed);
  // The committed state reached the store (version 2 after the initial 1).
  auto stored = s.sys.store_at(2).read(obj);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored.value().version, 2u);
  BankAccount check;
  (void)check.restore(std::move(stored.value().state));
  EXPECT_EQ(check.balance(), 10);
}

TEST(Replication, Fig2CrashOfOnlyServerAbortsAction) {
  Sys s;
  Uid obj = s.sys.define_object("acct", "bank", BankAccount{}.snapshot(), {2}, {2},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  Status outcome = ok_status();
  s.run([](ReplicaSystem& sys, core::ClientSession* client, Uid obj,
           Status& outcome) -> sim::Task<> {
    auto txn = client->begin();
    (void)co_await txn->invoke(obj, "deposit", i64_buf(10), LockMode::Write);
    sys.cluster().node(2).crash();  // the only server AND store node
    outcome = co_await txn->commit();
  }(s.sys, client, obj, outcome));
  EXPECT_EQ(outcome.error(), Err::Aborted);
}

// |Sv|=1, |St|=3: single-copy passive replication (fig 3). A store crash
// during the action leads to Exclude at commit; the action still commits.
TEST(Replication, Fig3StoreCrashExcludedAtCommit) {
  Sys s;
  Uid obj = s.sys.define_object("acct", "bank", BankAccount{}.snapshot(), {2}, {3, 4, 5},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  Status outcome = Err::Aborted;
  s.run([](ReplicaSystem& sys, core::ClientSession* client, Uid obj,
           Status& outcome) -> sim::Task<> {
    auto txn = client->begin();
    (void)co_await txn->invoke(obj, "deposit", i64_buf(5), LockMode::Write);
    sys.cluster().node(4).crash();  // one of the three stores
    outcome = co_await txn->commit();
  }(s.sys, client, obj, outcome));
  EXPECT_TRUE(outcome.ok());
  // Node 4 was excluded from St; 3 and 5 hold the new state.
  EXPECT_EQ(s.sys.gvdb().states().peek(obj), (std::vector<sim::NodeId>{3, 5}));
  EXPECT_EQ(s.sys.store_at(3).read(obj).value().version, 2u);
  EXPECT_EQ(s.sys.store_at(5).read(obj).value().version, 2u);
}

// Mutual-consistency invariant: after any commit, every node left in
// St(A) holds an identical latest state.
TEST(Replication, StNodesMutuallyConsistentAfterCommits) {
  Sys s;
  Uid obj = s.sys.define_object("ctr", "counter", Counter{}.snapshot(), {2}, {3, 4, 5},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  s.run([](core::ClientSession* client, Uid obj) -> sim::Task<> {
    for (int i = 0; i < 5; ++i) {
      auto txn = client->begin();
      (void)co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write);
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
  }(client, obj));
  const auto st = s.sys.gvdb().states().peek(obj);
  ASSERT_EQ(st.size(), 3u);
  auto first = s.sys.store_at(st[0]).read(obj);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().version, 6u);
  for (auto node : st) {
    auto r = s.sys.store_at(node).read(obj);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().version, first.value().version);
    EXPECT_EQ(r.value().state.checksum(), first.value().state.checksum());
  }
}

// |Sv|=3, |St|=1: active replication masks server crashes (fig 4).
TEST(Replication, Fig4ActiveReplicationMasksServerCrash) {
  Sys s;
  Uid obj = s.sys.define_object("ctr", "counter", Counter{}.snapshot(), {2, 3, 4}, {5},
                                ReplicationPolicy::Active, 3);
  auto* client = s.sys.client(1);
  bool committed = false;
  std::int64_t final_value = -1;
  s.run([](ReplicaSystem& sys, core::ClientSession* client, Uid obj, bool& committed,
           std::int64_t& final_value) -> sim::Task<> {
    auto txn = client->begin();
    auto r1 = co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write);
    EXPECT_TRUE(r1.ok());
    sys.cluster().node(2).crash();  // kill one of the three replicas
    auto r2 = co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write);
    EXPECT_TRUE(r2.ok());  // masked: the other replicas answer
    if (r2.ok()) final_value = r2.value().unpack_i64().value();
    committed = (co_await txn->commit()).ok();
  }(s.sys, client, obj, committed, final_value));
  EXPECT_TRUE(committed);
  EXPECT_EQ(final_value, 2);
  // The store received the committed state from a surviving replica.
  EXPECT_EQ(s.sys.store_at(5).read(obj).value().version, 2u);
}

TEST(Replication, ActiveReplicasStayIdentical) {
  Sys s;
  Uid obj = s.sys.define_object("log", "log", EventLog{}.snapshot(), {2, 3, 4}, {5},
                                ReplicationPolicy::Active, 3);
  auto* client = s.sys.client(1);
  s.run([](core::ClientSession* client, Uid obj) -> sim::Task<> {
    auto txn = client->begin();
    for (int i = 0; i < 10; ++i) {
      Buffer args;
      args.pack_string("entry-" + std::to_string(i));
      EXPECT_TRUE((co_await txn->invoke(obj, "append", std::move(args), LockMode::Write)).ok());
    }
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(client, obj));
  // All three replicas applied the same sequence: identical snapshots.
  auto s2 = s.sys.host_at(2).status(obj);
  auto s3 = s.sys.host_at(3).status(obj);
  auto s4 = s.sys.host_at(4).status(obj);
  EXPECT_TRUE(s2.active && s3.active && s4.active);
  auto snap2 = s.sys.host_at(2).state_for_commit(obj, Uid{}).value().snapshot;
  auto snap3 = s.sys.host_at(3).state_for_commit(obj, Uid{}).value().snapshot;
  auto snap4 = s.sys.host_at(4).state_for_commit(obj, Uid{}).value().snapshot;
  EXPECT_EQ(snap2.checksum(), snap3.checksum());
  EXPECT_EQ(snap3.checksum(), snap4.checksum());
}

// A group invocation is one ordered multicast of the objsrv.invoke request
// and one reply datagram from each member (sec 2.3(2)(i)): the first reply
// answers the call and the second is dropped as late.
TEST(Replication, GroupCallSendsOneReplyPerMember) {
  Sys s;
  Uid obj = s.sys.define_object("ctr", "counter", Counter{}.snapshot(), {2, 3}, {4},
                                ReplicationPolicy::Active, 2);
  auto* client = s.sys.client(1);
  std::uint64_t sends = 0;
  std::uint64_t late = 0;
  s.run([](ReplicaSystem& sys, core::ClientSession* client, Uid obj, std::uint64_t& sends,
           std::uint64_t& late) -> sim::Task<> {
    auto txn = client->begin();
    // The first invocation binds and activates both members; let its last
    // reply land before counting.
    EXPECT_TRUE((co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write)).ok());
    co_await sys.sim().sleep(10 * sim::kMillisecond);
    const std::uint64_t sends0 = sys.aggregate_counters().get("net.send");
    const std::uint64_t late0 = sys.metrics().counters().get("rpc.late_reply");
    EXPECT_TRUE((co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write)).ok());
    co_await sys.sim().sleep(10 * sim::kMillisecond);
    sends = sys.aggregate_counters().get("net.send") - sends0;
    late = sys.metrics().counters().get("rpc.late_reply") - late0;
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(s.sys, client, obj, sends, late));
  EXPECT_EQ(sends, 2u);
  EXPECT_EQ(late, 1u);
}

// Coordinator-cohort: the cohorts receive checkpoints at commit; after a
// coordinator crash the next transaction is served by a warm cohort
// without touching the stores.
TEST(Replication, CoordinatorCohortFailover) {
  Sys s;
  Uid obj = s.sys.define_object("acct", "bank", BankAccount{}.snapshot(), {2, 3}, {5},
                                ReplicationPolicy::CoordinatorCohort, 2);
  auto* client = s.sys.client(1);
  std::int64_t balance_after_failover = -1;
  s.run([](ReplicaSystem& sys, core::ClientSession* client, Uid obj,
           std::int64_t& balance) -> sim::Task<> {
    {
      auto txn = client->begin();
      EXPECT_TRUE((co_await txn->invoke(obj, "deposit", i64_buf(50), LockMode::Write)).ok());
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
    // The cohort (node 3) now holds the committed checkpoint.
    EXPECT_TRUE(sys.host_at(3).is_active(obj));
    EXPECT_EQ(sys.host_at(3).status(obj).version, 2u);

    sys.cluster().node(2).crash();  // kill the coordinator

    auto txn = client->begin();
    auto r = co_await txn->invoke(obj, "balance", Buffer{}, LockMode::Read);
    EXPECT_TRUE(r.ok());
    if (r.ok()) balance = r.value().unpack_i64().value();
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(s.sys, client, obj, balance_after_failover));
  EXPECT_EQ(balance_after_failover, 50);
}

// Abort restores the object's before-image at every replica.
TEST(Replication, AbortRestoresBeforeImage) {
  Sys s;
  Uid obj = s.sys.define_object("acct", "bank", BankAccount{}.snapshot(), {2}, {3},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  s.run([](core::ClientSession* client, Uid obj) -> sim::Task<> {
    {
      auto txn = client->begin();
      (void)co_await txn->invoke(obj, "deposit", i64_buf(100), LockMode::Write);
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
    {
      auto txn = client->begin();
      (void)co_await txn->invoke(obj, "deposit", i64_buf(999), LockMode::Write);
      (void)co_await txn->abort();
    }
    {
      auto txn = client->begin();
      auto r = co_await txn->invoke(obj, "balance", Buffer{}, LockMode::Read);
      EXPECT_TRUE(r.ok());
      if (r.ok()) EXPECT_EQ(r.value().unpack_i64().value(), 100);
      (void)co_await txn->commit();
    }
  }(client, obj));
}

// Read-only transactions skip the copy-back entirely (sec 4.2.1).
TEST(Replication, ReadOnlyOptimisationSkipsStores) {
  Sys s;
  Uid obj = s.sys.define_object("acct", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  s.run([](core::ClientSession* client, Uid obj) -> sim::Task<> {
    auto txn = client->begin();
    (void)co_await txn->invoke(obj, "balance", Buffer{}, LockMode::Read);
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(client, obj));
  EXPECT_EQ(client->commit_processor().counters().get("commit.read_only_skip"), 1u);
  EXPECT_EQ(client->commit_processor().counters().get("commit.state_copied"), 0u);
  // Version unchanged in the stores.
  EXPECT_EQ(s.sys.store_at(3).read(obj).value().version, 1u);
}

// Commit sends each St store one prepare per action, carrying every
// object that store holds: two objects on the same three stores cost
// three prepare round trips, not six. Calls are counted by their latency
// samples.
TEST(Replication, OnePreparePerStoreCarriesEveryObject) {
  Sys s;
  Uid a = s.sys.define_object("a", "counter", Counter{}.snapshot(), {2}, {3, 4, 5},
                              ReplicationPolicy::SingleCopyPassive, 1);
  Uid b = s.sys.define_object("b", "counter", Counter{}.snapshot(), {2}, {3, 4, 5},
                              ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  Status outcome = Err::Aborted;
  s.run([](core::ClientSession* client, Uid a, Uid b, Status& outcome) -> sim::Task<> {
    auto txn = client->begin();
    EXPECT_TRUE((co_await txn->invoke(a, "add", i64_buf(1), LockMode::Write)).ok());
    EXPECT_TRUE((co_await txn->invoke(b, "add", i64_buf(2), LockMode::Write)).ok());
    outcome = co_await txn->commit();
  }(client, a, b, outcome));
  EXPECT_TRUE(outcome.ok());
  const auto& h = s.sys.metrics().histograms();
  auto prepares = h.find("rpc.store.prepare_us");
  ASSERT_NE(prepares, h.end());
  EXPECT_EQ(prepares->second.count(), 3u);
  EXPECT_EQ(client->commit_processor().counters().get("commit.state_copied"), 6u);
  for (sim::NodeId st : {3u, 4u, 5u}) {
    EXPECT_EQ(s.sys.store_at(st).read(a).value().version, 2u);
    EXPECT_EQ(s.sys.store_at(st).read(b).value().version, 2u);
    EXPECT_EQ(s.sys.store_at(st).counters().get("store.prepare"), 2u);
  }
}

// Staging sends each bound server one state_for_commit per action,
// carrying every object bound there: two objects on server 2 cost one
// round trip, not two, and both still commit.
TEST(Replication, OneStateForCommitPerServerCarriesEveryObject) {
  Sys s;
  Uid a = s.sys.define_object("a", "counter", Counter{}.snapshot(), {2}, {3, 4},
                              ReplicationPolicy::SingleCopyPassive, 1);
  Uid b = s.sys.define_object("b", "counter", Counter{}.snapshot(), {2}, {3, 4},
                              ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  Status outcome = Err::Aborted;
  s.run([](core::ClientSession* client, Uid a, Uid b, Status& outcome) -> sim::Task<> {
    auto txn = client->begin();
    EXPECT_TRUE((co_await txn->invoke(a, "add", i64_buf(1), LockMode::Write)).ok());
    EXPECT_TRUE((co_await txn->invoke(b, "add", i64_buf(2), LockMode::Write)).ok());
    outcome = co_await txn->commit();
  }(client, a, b, outcome));
  EXPECT_TRUE(outcome.ok());
  const auto& h = s.sys.metrics().histograms();
  auto fetches = h.find("rpc.objsrv.state_for_commit_us");
  ASSERT_NE(fetches, h.end());
  EXPECT_EQ(fetches->second.count(), 1u);
  for (sim::NodeId st : {3u, 4u}) {
    EXPECT_EQ(s.sys.store_at(st).read(a).value().version, 2u);
    EXPECT_EQ(s.sys.store_at(st).read(b).value().version, 2u);
  }
}

// In a writing action the stores vote Yes in their staging replies and
// the bound server in its state_for_commit reply, so phase 1 sends one
// txn.prepare: to the group view database. Phase 2 still reaches all
// five participants.
TEST(Replication, WritingCommitSendsOnePrepare) {
  Sys s;
  std::vector<Uid> objs;
  for (const char* name : {"a", "b", "c", "d"})
    objs.push_back(s.sys.define_object(name, "counter", Counter{}.snapshot(), {2}, {3, 4, 5},
                                       ReplicationPolicy::SingleCopyPassive, 1));
  auto* client = s.sys.client(1);
  Status outcome = Err::Aborted;
  s.run([](core::ClientSession* client, std::vector<Uid> objs, Status& outcome) -> sim::Task<> {
    auto txn = client->begin();
    for (const Uid& obj : objs)
      EXPECT_TRUE((co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write)).ok());
    outcome = co_await txn->commit();
  }(client, objs, outcome));
  EXPECT_TRUE(outcome.ok());
  const auto& h = s.sys.metrics().histograms();
  auto prepares = h.find("rpc.txn.prepare_us");
  ASSERT_NE(prepares, h.end());
  EXPECT_EQ(prepares->second.count(), 1u);
  auto commits = h.find("rpc.txn.commit_us");
  ASSERT_NE(commits, h.end());
  EXPECT_EQ(commits->second.count(), 5u);
  for (const Uid& obj : objs)
    for (sim::NodeId st : {3u, 4u, 5u}) EXPECT_EQ(s.sys.store_at(st).read(obj).value().version, 2u);
}

// After a commit, mark_committed goes only to a bound replica that phase
// 2 does not move onto the new version. Replica 3 is put one version
// behind replica 2; both apply the next write. The commit stages from
// replica 2, retires replica 3, and sends replica 2 nothing.
TEST(Replication, MarkCommittedOnlyToAReplicaBehind) {
  Sys s;
  Uid obj = s.sys.define_object("ctr", "counter", Counter{}.snapshot(), {2, 3}, {4},
                                ReplicationPolicy::Active, 2);
  auto* client = s.sys.client(1);
  auto add_one = [](core::ClientSession* client, Uid obj) -> sim::Task<> {
    auto txn = client->begin();
    EXPECT_TRUE((co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write)).ok());
    EXPECT_TRUE((co_await txn->commit()).ok());
  };
  s.run(add_one(client, obj));  // both replicas at version 2
  EXPECT_EQ(s.sys.host_at(3).status(obj).version, 2u);
  ASSERT_TRUE(s.sys.host_at(3).activate_from_snapshot(obj, "counter", 1, Counter{}.snapshot()).ok());

  s.run(add_one(client, obj));
  const auto& h = s.sys.metrics().histograms();
  auto marks = h.find("rpc.objsrv.mark_committed_us");
  ASSERT_NE(marks, h.end());
  EXPECT_EQ(marks->second.count(), 1u);  // replica 3 only, after the second commit
  EXPECT_EQ(s.sys.host_at(3).counters().get("objsrv.stale_retired"), 1u);
  EXPECT_FALSE(s.sys.host_at(3).is_active(obj));
  EXPECT_EQ(s.sys.host_at(2).status(obj).version, 3u);
  EXPECT_EQ(s.sys.store_at(4).read(obj).value().version, 3u);
}

// ---------------------------------------------------------- recovery

// A store node crashes, misses a commit (gets excluded), recovers,
// refreshes its state from a peer and is Included back.
TEST(Recovery, ExcludedStoreRefreshesAndRejoins) {
  Sys s;
  Uid obj = s.sys.define_object("ctr", "counter", Counter{}.snapshot(), {2}, {3, 4},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  s.run([](ReplicaSystem& sys, core::ClientSession* client, Uid obj) -> sim::Task<> {
    sys.cluster().node(4).crash();
    {
      auto txn = client->begin();
      (void)co_await txn->invoke(obj, "add", i64_buf(7), LockMode::Write);
      EXPECT_TRUE((co_await txn->commit()).ok());  // node 4 excluded here
    }
    EXPECT_EQ(sys.gvdb().states().peek(obj), (std::vector<sim::NodeId>{3}));

    sys.cluster().node(4).recover();  // recovery daemon arms automatically
  }(s.sys, client, obj));
  s.sys.sim().run();  // let the repair pass finish

  // Node 4 is back in St with the refreshed state, and serves reads again.
  auto st = s.sys.gvdb().states().peek(obj);
  std::sort(st.begin(), st.end());
  EXPECT_EQ(st, (std::vector<sim::NodeId>{3, 4}));
  auto r = s.sys.store_at(4).read(obj);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().version, 2u);
}

// The repair's actions run in the recovery daemon's own runtime; the
// system's aggregate counts them beside the client's.
TEST(Recovery, AggregateCountsRepairActions) {
  Sys s;
  Uid obj = s.sys.define_object("ctr", "counter", Counter{}.snapshot(), {2}, {3, 4},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  s.run([](ReplicaSystem& sys, core::ClientSession* client, Uid obj) -> sim::Task<> {
    sys.cluster().node(4).crash();
    auto txn = client->begin();
    (void)co_await txn->invoke(obj, "add", i64_buf(7), LockMode::Write);
    EXPECT_TRUE((co_await txn->commit()).ok());  // node 4 excluded here
    sys.cluster().node(4).recover();
  }(s.sys, client, obj));
  s.sys.sim().run();  // the repair refreshes node 4 and Includes it

  const std::uint64_t by_client = client->runtime().counters().get("action.committed_top");
  const std::uint64_t by_repair =
      s.sys.recovery_at(4).runtime().counters().get("action.committed_top");
  EXPECT_GE(by_repair, 1u);
  EXPECT_EQ(s.sys.aggregate_counters().get("action.committed_top"), by_client + by_repair);
}

// A store that crashed WITHOUT missing anything validates quickly and
// keeps serving (it is never excluded).
TEST(Recovery, CleanCrashValidatesWithoutRefresh) {
  Sys s;
  Uid obj = s.sys.define_object("ctr", "counter", Counter{}.snapshot(), {2}, {3, 4},
                                ReplicationPolicy::SingleCopyPassive, 1);
  s.sys.cluster().node(4).crash();
  s.sys.cluster().node(4).recover();
  s.sys.sim().run();
  EXPECT_FALSE(s.sys.store_at(4).suspect(obj));
  EXPECT_EQ(s.sys.recovery_at(4).counters().get("recovery.refreshed"), 0u);
  EXPECT_GE(s.sys.recovery_at(4).counters().get("recovery.validated"), 1u);
}

// The recovery hook and the view probe drive one repair loop: a probe
// that fires while a long pass is running starts no second pass over the
// same suspects, so each Excluded object is Included exactly once.
TEST(Recovery, OneRepairRunsAtATime) {
  SystemConfig cfg;
  cfg.start_view_probe = true;
  Sys s{cfg};
  // Enough objects that one pass over them outlasts two probe periods.
  constexpr std::size_t kObjects = 128;
  std::vector<Uid> objs;
  for (std::size_t i = 0; i < kObjects; ++i)
    objs.push_back(s.sys.define_object("ctr" + std::to_string(i), "counter",
                                       Counter{}.snapshot(), {2}, {3, 4},
                                       ReplicationPolicy::SingleCopyPassive, 1));
  s.sys.cluster().node(4).crash();
  s.sys.sim().spawn([](core::ClientSession* client, std::vector<Uid> objs) -> sim::Task<> {
    auto txn = client->begin();
    for (const Uid& obj : objs) (void)co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write);
    EXPECT_TRUE((co_await txn->commit()).ok());  // node 4 excluded from every St
  }(s.sys.client(1), objs));
  s.sys.sim().run_until(2 * sim::kSecond);
  for (const Uid& obj : objs)
    ASSERT_EQ(s.sys.gvdb().states().peek(obj), (std::vector<sim::NodeId>{3}));

  const sim::SimTime recovered_at = s.sys.sim().now();
  s.sys.cluster().node(4).recover();
  s.sys.sim().run_until(recovered_at + 5 * sim::kSecond);
  for (sim::NodeId n = 0; n < s.sys.cluster().size(); ++n) s.sys.recovery_at(n).stop_view_probe();
  s.sys.sim().run();

  const auto& recovery = s.sys.recovery_at(4).counters();
  // The first pass outlasted the probe period, so probes ran during it.
  EXPECT_GT(s.sys.metrics().histograms().at("recovery.repair_us").max(),
            static_cast<double>(2 * RecoveryDaemon::kViewProbePeriod));
  EXPECT_EQ(s.sys.gvdb().counters().get("ostdb.include"), kObjects);
  EXPECT_EQ(recovery.get("recovery.include_refused"), 0u);
  EXPECT_EQ(recovery.get("recovery.included"), kObjects);
  EXPECT_EQ(recovery.get("recovery.validated"), kObjects);
  for (const Uid& obj : objs) {
    auto st = s.sys.gvdb().states().peek(obj);
    std::sort(st.begin(), st.end());
    EXPECT_EQ(st, (std::vector<sim::NodeId>{3, 4}));
    EXPECT_EQ(s.sys.store_at(4).read(obj).value().version, 2u);
  }
}

// A recovered server node re-runs Insert before serving (sec 4.1.2).
TEST(Recovery, RecoveredServerReinserts) {
  Sys s;
  Uid obj = s.sys.define_object("ctr", "counter", Counter{}.snapshot(), {2, 3}, {4},
                                ReplicationPolicy::Active, 2);
  (void)obj;
  s.sys.cluster().node(2).crash();
  s.sys.cluster().node(2).recover();
  s.sys.sim().run();
  EXPECT_GE(s.sys.recovery_at(2).counters().get("recovery.reinserted"), 1u);
}

// ------------------------------------------------ touched-object index
// An ending action visits only the objects it holds undo state on. These
// drive ObjectServerHost's participant API directly so each step of the
// nesting is explicit.

// Balance of `object` as `host` holds it (no action may have undo state).
std::int64_t held_balance(ObjectServerHost& host, const Uid& object) {
  auto s = host.state_for_commit(object, Uid{});
  if (!s.ok()) return -1;
  BankAccount acct;
  (void)acct.restore(std::move(s.value().snapshot));
  return acct.balance();
}

Buffer bank_state(std::int64_t balance) {
  BankAccount acct;
  bool modified = false;
  (void)acct.apply("deposit", i64_buf(balance), modified);
  return acct.snapshot();
}

struct IndexSys : Sys {
  Uid a, b;
  ObjectServerHost& host;
  const std::vector<NodeId> st{3};
  IndexSys()
      : a(sys.define_object("a", "bank", BankAccount{}.snapshot(), {2}, {3},
                            ReplicationPolicy::SingleCopyPassive, 1)),
        b(sys.define_object("b", "bank", BankAccount{}.snapshot(), {2}, {3},
                            ReplicationPolicy::SingleCopyPassive, 1)),
        host(sys.host_at(2)) {}

  sim::Task<Status> deposit(Uid object, Uid action, std::vector<Uid> ancestors,
                            std::int64_t amount) {
    auto r = co_await host.invoke(object, action, std::move(ancestors), LockMode::Write,
                                  "deposit", i64_buf(amount));
    if (!r.ok()) co_return r.error();
    co_return ok_status();
  }
};

TEST(ObjectServerIndex, NestedCommitThenAbortRestoresBothObjects) {
  IndexSys s;
  s.run([](IndexSys& s) -> sim::Task<> {
    EXPECT_TRUE((co_await s.host.activate(s.a, "bank", s.st)).ok());
    EXPECT_TRUE((co_await s.host.activate(s.b, "bank", s.st)).ok());
    const Uid top{0xAC7, 1}, child{0xAC7, 2};
    const std::vector<Uid> in_top{top};
    EXPECT_TRUE((co_await s.deposit(s.a, top, {}, 10)).ok());
    EXPECT_TRUE((co_await s.deposit(s.a, child, in_top, 5)).ok());
    EXPECT_TRUE((co_await s.deposit(s.b, child, in_top, 7)).ok());
    EXPECT_EQ(s.host.indexed_actions(), 2u);
    s.host.nested_commit(child, top);
    EXPECT_EQ(s.host.indexed_actions(), 1u);
    EXPECT_TRUE((co_await s.host.abort(top)).ok());
    EXPECT_EQ(s.host.indexed_actions(), 0u);
    // Both objects are back at their pre-action state and version.
    EXPECT_EQ(held_balance(s.host, s.a), 0);
    EXPECT_EQ(held_balance(s.host, s.b), 0);
    EXPECT_EQ(s.host.status(s.a).version, 1u);
    EXPECT_EQ(s.host.status(s.b).version, 1u);

    // A nested abort undoes only the child; the parent's commit then
    // advances exactly the object the parent family still modified.
    const Uid top2{0xAC7, 3}, child2{0xAC7, 4};
    const std::vector<Uid> in_top2{top2};
    EXPECT_TRUE((co_await s.deposit(s.a, top2, {}, 1)).ok());
    EXPECT_TRUE((co_await s.deposit(s.a, child2, in_top2, 2)).ok());
    EXPECT_TRUE((co_await s.deposit(s.b, child2, in_top2, 3)).ok());
    s.host.nested_abort(child2);
    EXPECT_EQ(s.host.indexed_actions(), 1u);
    EXPECT_TRUE((co_await s.host.commit(top2)).ok());
    EXPECT_EQ(s.host.indexed_actions(), 0u);
    EXPECT_EQ(held_balance(s.host, s.a), 1);
    EXPECT_EQ(held_balance(s.host, s.b), 0);
    EXPECT_EQ(s.host.status(s.a).version, 2u);
    EXPECT_EQ(s.host.status(s.b).version, 1u);
  }(s));
}

TEST(ObjectServerIndex, PassivatedAndReactivatedObjectsKeepTheirState) {
  IndexSys s;
  s.run([](IndexSys& s) -> sim::Task<> {
    EXPECT_TRUE((co_await s.host.activate(s.a, "bank", s.st)).ok());
    EXPECT_TRUE((co_await s.host.activate(s.b, "bank", s.st)).ok());
    // A child writes `a` and is undone; `a` then falls quiet, is
    // passivated and re-activated from its store while the parent still
    // runs. The parent's abort restores `b` and leaves the fresh `a` be.
    const Uid top{0xAC7, 1}, child{0xAC7, 2};
    const std::vector<Uid> in_top{top};
    EXPECT_TRUE((co_await s.deposit(s.b, top, {}, 4)).ok());
    EXPECT_TRUE((co_await s.deposit(s.a, child, in_top, 9)).ok());
    s.host.nested_abort(child);
    EXPECT_TRUE(s.host.passivate(s.a).ok());
    EXPECT_FALSE(s.host.is_active(s.a));
    EXPECT_TRUE((co_await s.host.activate(s.a, "bank", s.st)).ok());
    EXPECT_TRUE((co_await s.host.abort(top)).ok());
    EXPECT_EQ(held_balance(s.host, s.a), 0);
    EXPECT_EQ(held_balance(s.host, s.b), 0);

    // An action's object is re-activated from a checkpoint before the
    // action ends: the index still names it, but the fresh instance holds
    // none of the action's undo state, so neither the abort's restore nor
    // the commit's version bump may touch it.
    const Uid t1{0xAC7, 3};
    EXPECT_TRUE((co_await s.deposit(s.a, t1, {}, 5)).ok());
    EXPECT_TRUE(s.host.activate_from_snapshot(s.a, "bank", 5, bank_state(50)).ok());
    EXPECT_TRUE((co_await s.host.abort(t1)).ok());
    EXPECT_EQ(held_balance(s.host, s.a), 50);
    EXPECT_EQ(s.host.status(s.a).version, 5u);

    const Uid t2{0xAC7, 4};
    EXPECT_TRUE((co_await s.deposit(s.a, t2, {}, 5)).ok());
    EXPECT_TRUE((co_await s.deposit(s.b, t2, {}, 6)).ok());
    EXPECT_TRUE(s.host.activate_from_snapshot(s.a, "bank", 6, bank_state(60)).ok());
    EXPECT_TRUE((co_await s.host.commit(t2)).ok());
    EXPECT_EQ(held_balance(s.host, s.a), 60);
    EXPECT_EQ(s.host.status(s.a).version, 6u);
    EXPECT_EQ(held_balance(s.host, s.b), 6);
    EXPECT_EQ(s.host.status(s.b).version, 2u);
    EXPECT_EQ(s.host.indexed_actions(), 0u);
  }(s));
}

// A nested commit hands the child's locks to its parent, and with them
// the orphan tracking: when the client dies, the sweep a refused lock
// wait triggers must find the parent, or its inherited write lock wedges
// the object for good.
TEST(ObjectServerIndex, NestedCommitHandsOrphanTrackingToTheParent) {
  IndexSys s;
  const Uid top{0xAC7, 1}, child{0xAC7, 2};
  Status second = ok_status();
  s.run([](IndexSys& s, Uid top, Uid child, Status& second) -> sim::Task<> {
    EXPECT_TRUE((co_await s.host.activate(s.a, "bank", s.st)).ok());
    const std::vector<Uid> in_top{top};
    auto r = co_await s.host.invoke(s.a, child, in_top, LockMode::Write, "deposit", i64_buf(5),
                                    /*owner=*/1);
    EXPECT_TRUE(r.ok());
    s.host.nested_commit(child, top);
    s.sys.cluster().node(1).crash();  // the client dies holding the lock
    second = co_await s.deposit(s.a, Uid{0xAC7, 3}, {}, 1);
  }(s, top, child, second));
  // Refused while the dead client holds the lock; the refusal sweeps.
  EXPECT_EQ(second.error(), Err::LockRefused);
  EXPECT_EQ(s.host.locks().holder_count({s.a, actions::kObjectPart}), 0u);

  EXPECT_EQ(s.host.counters().get("objsrv.orphan_presumed_abort"), 1u);

  // The sweep retired the replica the orphan wrote; reloaded from its
  // store, the object serves the next action.
  Status third = Err::Timeout;
  s.run([](IndexSys& s, Status& third) -> sim::Task<> {
    EXPECT_TRUE((co_await s.host.activate(s.a, "bank", s.st)).ok());
    third = co_await s.deposit(s.a, Uid{0xAC7, 4}, {}, 1);
  }(s, third));
  EXPECT_TRUE(third.ok()) << to_string(third.error());
}

// A crash ends a running orphan sweep: its outcome call is abandoned with
// the incarnation. The sweep after recovery must still run, or one orphan
// wedges its object for good.
TEST(ObjectServerIndex, CrashMidSweepLeavesLaterSweepsRunning) {
  IndexSys s;
  Status wedged = ok_status();
  s.run([](IndexSys& s, Status& wedged) -> sim::Task<> {
    EXPECT_TRUE((co_await s.host.activate(s.a, "bank", s.st)).ok());
    auto r = co_await s.host.invoke(s.a, Uid{0xAC7, 1}, {}, LockMode::Write, "deposit",
                                    i64_buf(5), /*owner=*/1);
    EXPECT_TRUE(r.ok());
    // Refused behind the live client's action: the refusal starts a
    // sweep, whose outcome call to node 1 is in flight when node 2 dies.
    EXPECT_EQ((co_await s.deposit(s.a, Uid{0xAC7, 2}, {}, 1)).error(), Err::LockRefused);
    EXPECT_EQ(s.host.counters().get("objsrv.orphan_sweep"), 1u);
    s.sys.cluster().node(2).crash();
    s.sys.cluster().node(2).recover();
    co_await s.sys.sim().sleep(sim::kSecond);  // recovery re-admits the server
    EXPECT_TRUE((co_await s.host.activate(s.a, "bank", s.st)).ok());
    // An orphan: its client dies holding the write lock.
    r = co_await s.host.invoke(s.a, Uid{0xAC7, 3}, {}, LockMode::Write, "deposit", i64_buf(5),
                               /*owner=*/1);
    EXPECT_TRUE(r.ok());
    s.sys.cluster().node(1).crash();
    EXPECT_EQ((co_await s.deposit(s.a, Uid{0xAC7, 4}, {}, 1)).error(), Err::LockRefused);
    co_await s.sys.sim().sleep(2 * sim::kSecond);
    // The sweep retired the replica the orphan wrote; reloaded from its
    // store, the object serves the next action.
    EXPECT_TRUE((co_await s.host.activate(s.a, "bank", s.st)).ok());
    wedged = co_await s.deposit(s.a, Uid{0xAC7, 5}, {}, 1);
  }(s, wedged));
  EXPECT_EQ(s.host.counters().get("objsrv.orphan_sweep"), 2u);
  EXPECT_EQ(s.host.counters().get("objsrv.orphan_presumed_abort"), 1u);
  EXPECT_TRUE(wedged.ok()) << to_string(wedged.error());
}

// R*'s read-only vote at an object server, cast in its staging reply:
// an action that left no before-image here ends at state_for_commit,
// once the coordinator lets it leave. Its read lock goes at once, so a
// writer queued behind it is granted before any decision reaches this
// server, and a late invocation of the finished action is refused.
TEST(ObjectServerIndex, ReadOnlyVoteReleasesLocksAndRefusesLateInvocations) {
  IndexSys s;
  const Uid reader{0xAC7, 1}, writer{0xAC7, 2};
  s.run([](IndexSys& s, Uid reader, Uid writer) -> sim::Task<> {
    EXPECT_TRUE((co_await s.host.activate(s.a, "bank", s.st)).ok());
    auto read = co_await s.host.invoke(s.a, reader, {}, LockMode::Read, "balance", Buffer{});
    EXPECT_TRUE(read.ok());
    bool wrote = false;
    s.sys.sim().spawn([](IndexSys& s, Uid writer, bool& wrote) -> sim::Task<> {
      wrote = (co_await s.deposit(s.a, writer, {}, 5)).ok();
    }(s, writer, wrote));
    co_await s.sys.sim().sleep(sim::kMillisecond);
    EXPECT_FALSE(wrote);  // queued behind the reader's lock

    // Not allowed to leave (the client wrote): its reply votes Yes.
    const auto stay = s.host.stage(reader, {s.a}, /*may_leave=*/false);
    EXPECT_EQ(stay.vote, actions::Vote::Yes);
    co_await s.sys.sim().sleep(sim::kMillisecond);
    EXPECT_FALSE(wrote);

    const auto leave = s.host.stage(reader, {s.a}, /*may_leave=*/true);
    EXPECT_EQ(leave.vote, actions::Vote::ReadOnly);
    EXPECT_EQ(leave.answers.size(), 1u);
    EXPECT_FALSE(leave.answers.empty() || leave.answers[0].modified);
    co_await s.sys.sim().sleep(sim::kMillisecond);
    EXPECT_TRUE(wrote);  // granted with no commit or abort of the reader

    auto late = co_await s.host.invoke(s.a, reader, {}, LockMode::Read, "balance", Buffer{});
    EXPECT_EQ(late.error(), Err::Aborted);
    EXPECT_TRUE((co_await s.host.commit(writer)).ok());
  }(s, reader, writer));
  EXPECT_EQ(s.host.counters().get("objsrv.read_only_vote"), 1u);
  EXPECT_EQ(s.host.counters().get("objsrv.refused_dead_action"), 1u);
  EXPECT_EQ(held_balance(s.host, s.a), 5);
}

// A server votes in its staging reply, so no coordinator asks it to
// prepare. One asked anyway has no staging of the action to vote from
// and votes No, whatever the action did there.
TEST(ObjectServerIndex, PrepareVotesNo) {
  IndexSys s;
  const Uid writer{0xAC7, 1}, stranger{0xAC7, 2};
  std::vector<actions::Vote> votes;
  s.run([](IndexSys& s, Uid writer, Uid stranger,
           std::vector<actions::Vote>& votes) -> sim::Task<> {
    EXPECT_TRUE((co_await s.host.activate(s.a, "bank", s.st)).ok());
    EXPECT_TRUE((co_await s.deposit(s.a, writer, {}, 3)).ok());
    votes.push_back(co_await s.host.prepare(writer, false));
    votes.push_back(co_await s.host.prepare(writer, true));
    votes.push_back(co_await s.host.prepare(stranger, true));
    EXPECT_TRUE((co_await s.host.abort(writer)).ok());
  }(s, writer, stranger, votes));
  EXPECT_EQ(votes, (std::vector<actions::Vote>(3, actions::Vote::No)));
  EXPECT_EQ(s.host.counters().get("objsrv.prepare_refused"), 3u);
  EXPECT_EQ(held_balance(s.host, s.a), 0);
}

// A server where the action wrote votes Yes even when allowed to leave.
TEST(ObjectServerIndex, WriterVotesYesWhenAllowedToLeave) {
  IndexSys s;
  s.run([](IndexSys& s) -> sim::Task<> {
    EXPECT_TRUE((co_await s.host.activate(s.a, "bank", s.st)).ok());
    const Uid writer{0xAC7, 1};
    EXPECT_TRUE((co_await s.deposit(s.a, writer, {}, 3)).ok());
    const auto staging = s.host.stage(writer, {s.a}, /*may_leave=*/true);
    EXPECT_EQ(staging.vote, actions::Vote::Yes);
    EXPECT_EQ(staging.answers.size(), 1u);
    EXPECT_TRUE(!staging.answers.empty() && staging.answers[0].modified);
    EXPECT_TRUE((co_await s.host.commit(writer)).ok());
  }(s));
  EXPECT_EQ(s.host.counters().get("objsrv.read_only_vote"), 0u);
  EXPECT_EQ(s.host.status(s.a).version, 2u);
}

// ------------------------------------------------------ commit shapes

// The calls `node` sent from `since` on, in order, by their span names
// ("rpc.<service>.<method>", and "ginv.invoke" for a group call).
std::vector<std::string> calls_from(const core::TraceRecorder& rec, sim::NodeId node,
                                    sim::SimTime since) {
  std::vector<std::string> out;
  for (const core::TraceEvent& ev : rec.events())
    if (ev.kind == core::TraceKind::Begin && ev.node == node && ev.at >= since &&
        ((ev.name.rfind("rpc.", 0) == 0 && ev.name.rfind("rpc.serve.", 0) != 0) ||
         ev.name == "ginv.invoke"))
      out.push_back(ev.name);
  return out;
}

SystemConfig shape_cfg(bool view_cache, naming::Scheme scheme, std::uint64_t seed) {
  SystemConfig cfg;
  cfg.seed = seed;
  cfg.view_cache = view_cache;
  cfg.scheme = scheme;
  return cfg;
}

// Bind `obj` in a transaction of `client`, read it, and commit; returns
// the calls the client sent while committing, and the outcome.
struct Committed {
  std::vector<std::string> calls;
  Status outcome = Err::Aborted;
};
Committed read_and_commit(Sys& s, core::ClientSession* client, Uid obj, bool write_too = false,
                          Uid other = Uid{}) {
  Committed out;
  s.run([](Sys& s, core::ClientSession* client, Uid obj, bool write_too, Uid other,
           Committed& out) -> sim::Task<> {
    auto txn = client->begin();
    EXPECT_TRUE((co_await txn->invoke(obj, "balance", Buffer{}, LockMode::Read)).ok());
    if (write_too) {
      EXPECT_TRUE((co_await txn->invoke(other, "deposit", i64_buf(1), LockMode::Write)).ok());
    }
    const sim::SimTime t0 = s.sys.sim().now();
    out.outcome = co_await txn->commit();
    out.calls = calls_from(s.sys.trace(), client->node(), t0);
  }(s, client, obj, write_too, other, out));
  return out;
}

// A cached read-only action ends in two calls: the bound server votes
// ReadOnly in its state_for_commit reply, and validate, sent last, ends
// the action at the group view database. No txn.prepare, no phase 2.
TEST(CommitShape, CachedReadOnlyIsStateForCommitThenValidate) {
  Sys s{shape_cfg(true, naming::Scheme::IndependentTopLevel, 41)};
  s.sys.trace().enable();
  const Uid obj = s.sys.define_object("o", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                      ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  const Committed c = read_and_commit(s, client, obj);
  EXPECT_TRUE(c.outcome.ok());
  EXPECT_EQ(c.calls,
            (std::vector<std::string>{"rpc.objsrv.state_for_commit", "rpc.gvdb.validate"}));
  EXPECT_EQ(client->runtime().counters().get("action.no_phase2"), 1u);
  EXPECT_EQ(client->runtime().counters().get("action.read_only_vote"), 2u);
  EXPECT_EQ(s.sys.host_at(2).counters().get("objsrv.read_only_vote"), 1u);
  EXPECT_EQ(s.sys.gvdb().counters().get("db.read_only_vote"), 1u);
  EXPECT_EQ(s.sys.gvdb().locks().holder_count({obj, naming::kStPart}), 0u);
  EXPECT_EQ(s.sys.gvdb().locks().holder_count({obj, naming::kSvPart}), 0u);
}

// An uncached S2 read-only action's client action holds St's read lock
// from the bind, so the group view database is a participant: after the
// server's ReadOnly vote, one prepare with leave ends it there, then the
// Decrement releases the use lists.
TEST(CommitShape, UncachedS2ReadOnlyIsStateForCommitThenOnePrepare) {
  Sys s{shape_cfg(false, naming::Scheme::IndependentTopLevel, 42)};
  s.sys.trace().enable();
  const Uid obj = s.sys.define_object("o", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                      ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  const Committed c = read_and_commit(s, client, obj);
  EXPECT_TRUE(c.outcome.ok());
  EXPECT_EQ(c.calls, (std::vector<std::string>{"rpc.objsrv.state_for_commit", "rpc.txn.prepare",
                                                "rpc.osdb.decrement"}));
  EXPECT_EQ(client->runtime().counters().get("action.no_phase2"), 1u);
  EXPECT_EQ(s.sys.host_at(2).counters().get("objsrv.read_only_vote"), 1u);
  EXPECT_EQ(s.sys.gvdb().counters().get("db.read_only_vote"), 1u);
}

// S1 holds GetServer's read lock under the client action too; the group
// view database still leaves at its prepare.
TEST(CommitShape, S1ReadOnlyEndsNamingWithALeavingPrepare) {
  Sys s{shape_cfg(false, naming::Scheme::StandardNested, 43)};
  s.sys.trace().enable();
  const Uid obj = s.sys.define_object("o", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                      ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  const Committed c = read_and_commit(s, client, obj);
  EXPECT_TRUE(c.outcome.ok());
  EXPECT_EQ(c.calls,
            (std::vector<std::string>{"rpc.objsrv.state_for_commit", "rpc.txn.prepare"}));
  EXPECT_EQ(client->runtime().counters().get("action.no_phase2"), 1u);
  EXPECT_EQ(s.sys.gvdb().counters().get("db.read_only_vote"), 1u);
  EXPECT_EQ(s.sys.gvdb().locks().holder_count({obj, naming::kSvPart}), 0u);
}

// An action that reads one object and writes another is a writer: it
// keeps validate, then staging, then the group view database's prepare,
// and phase 2 reaches every participant.
TEST(CommitShape, ReaderOfOneWriterOfAnotherKeepsValidateStagePrepare) {
  Sys s{shape_cfg(true, naming::Scheme::IndependentTopLevel, 44)};
  s.sys.trace().enable();
  const Uid a = s.sys.define_object("a", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  const Uid b = s.sys.define_object("b", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  const Committed c = read_and_commit(s, client, a, /*write_too=*/true, b);
  EXPECT_TRUE(c.outcome.ok());
  EXPECT_EQ(c.calls, (std::vector<std::string>{
                         "rpc.gvdb.validate", "rpc.objsrv.state_for_commit", "rpc.store.prepare",
                         "rpc.store.prepare", "rpc.txn.prepare", "rpc.txn.commit",
                         "rpc.txn.commit", "rpc.txn.commit", "rpc.txn.commit"}));
  EXPECT_EQ(s.sys.host_at(2).counters().get("objsrv.read_only_vote"), 0u);
  EXPECT_EQ(s.sys.gvdb().counters().get("db.read_only_vote"), 0u);
  for (sim::NodeId st : {3u, 4u}) EXPECT_EQ(s.sys.store_at(st).read(b).value().version, 2u);
}

// Validate goes last in a read-only action, after the server has left.
// A stale view still aborts the action: it has no effects, its locks at
// the group view database go with the abort, and the cached entry is
// dropped so a retry rebinds.
TEST(CommitShape, ValidateLastStaleViewAbortsWithNoEffects) {
  Sys s{shape_cfg(true, naming::Scheme::IndependentTopLevel, 45)};
  const Uid obj = s.sys.define_object("o", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                      ReplicationPolicy::SingleCopyPassive, 1);
  auto* a = s.sys.client(1);
  auto* b = s.sys.client(5);
  Status stale = ok_status();
  s.run([](Sys& s, core::ClientSession* a, core::ClientSession* b, Uid obj,
           Status& stale) -> sim::Task<> {
    {  // Warm A's cache.
      auto txn = a->begin();
      EXPECT_TRUE((co_await txn->invoke(obj, "deposit", i64_buf(100), LockMode::Write)).ok());
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
    s.sys.cluster().node(4).crash();
    {  // B's commit fails the copy to 4 and Excludes it (an St epoch bump).
      auto txn = b->begin();
      EXPECT_TRUE((co_await txn->invoke(obj, "deposit", i64_buf(10), LockMode::Write)).ok());
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
    auto txn = a->begin();
    EXPECT_TRUE((co_await txn->invoke(obj, "balance", Buffer{}, LockMode::Read)).ok());
    stale = co_await txn->commit();
  }(s, a, b, obj, stale));
  EXPECT_EQ(stale.error(), Err::StaleView);
  EXPECT_EQ(a->commit_processor().counters().get("commit.validate_stale"), 1u);
  EXPECT_EQ(s.sys.view_cache_at(1)->lookup(obj), nullptr);
  // The server left at its ReadOnly vote, before validate.
  EXPECT_EQ(s.sys.host_at(2).counters().get("objsrv.read_only_vote"), 1u);
  EXPECT_EQ(s.sys.gvdb().locks().holder_count({obj, naming::kStPart}), 0u);
  EXPECT_EQ(s.sys.gvdb().locks().holder_count({obj, naming::kSvPart}), 0u);
  EXPECT_EQ(s.sys.host_at(2).locks().holder_count({obj, actions::kObjectPart}), 0u);
  EXPECT_EQ(s.sys.store_at(3).read(obj).value().version, 3u);
  EXPECT_EQ(held_balance(s.sys.host_at(2), obj), 110);
}

// A late invocation of an action whose server already voted ReadOnly in
// its staging reply is refused there.
TEST(CommitShape, LateInvocationAfterReadOnlyVoteIsRefused) {
  Sys s{shape_cfg(true, naming::Scheme::IndependentTopLevel, 46)};
  const Uid obj = s.sys.define_object("o", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                      ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  Result<Buffer> late = Buffer{};
  s.run([](core::ClientSession* client, Uid obj, Result<Buffer>& late) -> sim::Task<> {
    auto txn = client->begin();
    EXPECT_TRUE((co_await txn->invoke(obj, "balance", Buffer{}, LockMode::Read)).ok());
    const Uid action = txn->action().uid();
    EXPECT_TRUE((co_await txn->commit()).ok());
    late = co_await objsrv_invoke(client->runtime().endpoint(), 2, obj, action, {},
                                  LockMode::Read, "balance", Buffer{});
  }(client, obj, late));
  EXPECT_EQ(late.error(), Err::Aborted);
  EXPECT_EQ(s.sys.host_at(2).counters().get("objsrv.read_only_vote"), 1u);
  EXPECT_EQ(s.sys.host_at(2).counters().get("objsrv.refused_dead_action"), 1u);
}

// The read-only vote must come from the server incarnation that served
// the reads (sec 3.1). A reads X at server 2; server 2 crashes and
// recovers, losing A's read lock; B re-activates X there, writes X and Y
// and commits; A then tries to read Y, after B's write. A read X before
// B, so it must not read Y after it, nor commit. A already depends on
// server 2's first incarnation, so Y's first invocation is bound to it
// and answers BindingBroken; A's staging call for X is bound to that
// incarnation too, so the recovered server cannot vote.
TEST(CommitShape, ReadsOfACrashedServerIncarnationDoNotCommit) {
  Sys s{shape_cfg(true, naming::Scheme::IndependentTopLevel, 47)};
  const Uid x = s.sys.define_object("x", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  const Uid y = s.sys.define_object("y", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  auto* a = s.sys.client(1);
  auto* b = s.sys.client(5);
  Status outcome = ok_status();
  s.run([](Sys& s, core::ClientSession* a, core::ClientSession* b, Uid x, Uid y,
           Status& outcome) -> sim::Task<> {
    auto reader = a->begin();
    EXPECT_TRUE((co_await reader->invoke(x, "balance", Buffer{}, LockMode::Read)).ok());
    s.sys.cluster().node(2).crash();
    co_await s.sys.sim().sleep(10 * sim::kMillisecond);
    s.sys.cluster().node(2).recover();
    co_await s.sys.sim().sleep(2 * sim::kSecond);  // its recovery re-admits it
    {
      auto writer = b->begin();
      EXPECT_TRUE((co_await writer->invoke(x, "deposit", i64_buf(7), LockMode::Write)).ok());
      EXPECT_TRUE((co_await writer->invoke(y, "deposit", i64_buf(7), LockMode::Write)).ok());
      EXPECT_TRUE((co_await writer->commit()).ok());
    }
    auto read_y = co_await reader->invoke(y, "balance", Buffer{}, LockMode::Read);
    EXPECT_EQ(read_y.error(), Err::BindingBroken);
    outcome = co_await reader->commit();
  }(s, a, b, x, y, outcome));
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(a->commit_processor().counters().get("commit.server_unreachable"), 1u);
}

// ------------------------------------------ binds and first invocations

// An uncached S2 write of two objects bound at one server: each bind is
// one naming call, no probe runs, and each object is activated by its
// first invocation, a point-to-point call. The first one goes unbound and
// its reply names the incarnation the second one is bound to.
TEST(CommitShape, TwoObjectsAtOneServerBindInOneCallEachAndActivateOnce) {
  Sys s{shape_cfg(false, naming::Scheme::IndependentTopLevel, 48)};
  s.sys.trace().enable();
  const Uid a = s.sys.define_object("a", "bank", BankAccount{}.snapshot(), {2, 3}, {4, 5},
                                    ReplicationPolicy::Active, 1);
  const Uid b = s.sys.define_object("b", "bank", BankAccount{}.snapshot(), {2, 3}, {4, 5},
                                    ReplicationPolicy::Active, 1);
  auto* client = s.sys.client(1);
  std::vector<std::string> calls;
  Status outcome = Err::Aborted;
  s.run([](Sys& s, core::ClientSession* client, Uid a, Uid b, std::vector<std::string>& calls,
           Status& outcome) -> sim::Task<> {
    auto txn = client->begin();
    EXPECT_TRUE((co_await txn->invoke(a, "deposit", i64_buf(1), LockMode::Write)).ok());
    EXPECT_TRUE((co_await txn->invoke(b, "deposit", i64_buf(2), LockMode::Write)).ok());
    calls = calls_from(s.sys.trace(), client->node(), 0);
    outcome = co_await txn->commit();
  }(s, client, a, b, calls, outcome));
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(calls, (std::vector<std::string>{"rpc.osdb.bind", "rpc.objsrv.invoke",
                                              "rpc.osdb.bind", "rpc.objsrv.invoke"}));
  EXPECT_EQ(client->activator().counters().get("activate.probe_skipped"), 2u);
  EXPECT_EQ(s.sys.host_at(2).counters().get("objsrv.activated"), 2u);
  EXPECT_EQ(s.sys.gc().members(a), (std::vector<sim::NodeId>{2}));
  EXPECT_EQ(s.sys.gc().members(b), (std::vector<sim::NodeId>{2}));
  for (sim::NodeId st : {4u, 5u}) EXPECT_EQ(s.sys.store_at(st).read(b).value().version, 2u);
  EXPECT_TRUE(s.sys.gvdb().servers().clients_in_use().empty());
}

// A dead first candidate: the first transaction's activating invocation
// there gets no answer, so it fails (the operation may have run) and the
// transaction aborts with no effects; the session marks the server
// suspect. The retry's bind probes it, and one more bind Removes it and
// releases the first binding in the same call; the retry commits
// through the next server and the auditor finds the use lists balanced.
TEST(CommitShape, DeadFirstCandidateIsRemovedByTheOneRebind) {
  Sys s{shape_cfg(false, naming::Scheme::IndependentTopLevel, 49)};
  s.sys.trace().enable();
  const Uid a = s.sys.define_object("a", "bank", BankAccount{}.snapshot(), {2, 3}, {4, 5},
                                    ReplicationPolicy::Active, 1);
  s.sys.cluster().node(2).crash();
  auto* client = s.sys.client(1);
  std::vector<std::string> first_calls, retry_calls;
  Result<Buffer> first = Buffer{};
  Status outcome = Err::Aborted;
  s.run([](Sys& s, core::ClientSession* client, Uid a, std::vector<std::string>& first_calls,
           std::vector<std::string>& retry_calls, Result<Buffer>& first,
           Status& outcome) -> sim::Task<> {
    {
      auto txn = client->begin();
      first = co_await txn->invoke(a, "deposit", i64_buf(5), LockMode::Write);
      first_calls = calls_from(s.sys.trace(), client->node(), 0);
      (void)co_await txn->abort();
    }
    const sim::SimTime t0 = s.sys.sim().now();
    auto txn = client->begin();
    EXPECT_TRUE((co_await txn->invoke(a, "deposit", i64_buf(5), LockMode::Write)).ok());
    retry_calls = calls_from(s.sys.trace(), client->node(), t0);
    outcome = co_await txn->commit();
  }(s, client, a, first_calls, retry_calls, first, outcome));
  EXPECT_EQ(first.error(), Err::Timeout);
  EXPECT_EQ(first_calls, (std::vector<std::string>{"rpc.osdb.bind", "rpc.objsrv.invoke"}));
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(retry_calls, (std::vector<std::string>{"rpc.osdb.bind", "rpc.objsrv.activate",
                                                    "rpc.osdb.bind", "rpc.objsrv.invoke"}));
  EXPECT_EQ(client->counters().get("session.txn_aborted"), 1u);
  for (sim::NodeId st : {4u, 5u}) EXPECT_EQ(s.sys.store_at(st).read(a).value().version, 2u);
  EXPECT_EQ(s.sys.gvdb().servers().entries.at(a).sv, (std::vector<sim::NodeId>{3}));
  EXPECT_EQ(s.sys.gvdb().counters().get("osdb.remove"), 1u);
  EXPECT_EQ(client->activator().binder().counters().get("bind.removed_failed_server"), 1u);
  core::InvariantAuditor audit{s.sys};
  audit.track(a);
  EXPECT_EQ(audit.check_now(/*quiescent=*/true), 0u) << audit.report();
}

// An activating invocation whose operation refuses (a withdraw with too
// little money answers Conflict) answers with the operation's own error:
// the client does not take it for a refused join and re-bind.
TEST(CommitShape, ActivatingInvocationKeepsTheOperationsConflict) {
  Sys s{shape_cfg(false, naming::Scheme::IndependentTopLevel, 53)};
  const Uid a = s.sys.define_object("a", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  const Uid b = s.sys.define_object("b", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  Result<Buffer> withdraw = Buffer{};
  s.run([](core::ClientSession* client, Uid a, Uid b, Result<Buffer>& withdraw) -> sim::Task<> {
    auto txn = client->begin();
    EXPECT_TRUE((co_await txn->invoke(a, "deposit", i64_buf(5), LockMode::Write)).ok());
    withdraw = co_await txn->invoke(b, "withdraw", i64_buf(999), LockMode::Write);
    (void)co_await txn->abort();
  }(client, a, b, withdraw));
  EXPECT_EQ(withdraw.error(), Err::Conflict);
  EXPECT_EQ(client->counters().get("session.activate_rebind"), 0u);
  EXPECT_TRUE(s.sys.host_at(2).is_active(b));
}

// S1 keeps a dead server in Sv. An activating invocation that gets no
// answer makes its server suspect, so the next bind that picks it probes
// it first; once the server has recovered, the probe's answer clears the
// suspicion and later binds take it unprobed again.
TEST(CommitShape, SuspectServerIsProbedUntilItAnswers) {
  Sys s{shape_cfg(false, naming::Scheme::StandardNested, 55)};
  s.sys.trace().enable();
  const Uid a = s.sys.define_object("a", "bank", BankAccount{}.snapshot(), {2, 3}, {4, 5},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  s.sys.cluster().node(2).crash();
  auto* client = s.sys.client(1);
  std::vector<std::vector<std::string>> calls;
  std::vector<Err> outcomes;
  s.run([](Sys& s, core::ClientSession* client, Uid a,
           std::vector<std::vector<std::string>>& calls,
           std::vector<Err>& outcomes) -> sim::Task<> {
    for (int i = 0; i < 3; ++i) {
      if (i == 1) {
        s.sys.cluster().node(2).recover();
        co_await s.sys.sim().sleep(2 * sim::kSecond);  // its recovery re-admits it
      }
      const sim::SimTime t0 = s.sys.sim().now();
      auto txn = client->begin();
      auto r = co_await txn->invoke(a, "deposit", i64_buf(1), LockMode::Write);
      calls.push_back(calls_from(s.sys.trace(), client->node(), t0));
      if (r.ok()) {
        outcomes.push_back((co_await txn->commit()).error());
      } else {
        outcomes.push_back(r.error());
        (void)co_await txn->abort();
      }
    }
  }(s, client, a, calls, outcomes));
  EXPECT_EQ(outcomes, (std::vector<Err>{Err::Timeout, Err::None, Err::None}));
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[0], (std::vector<std::string>{"rpc.osdb.bind_read", "rpc.objsrv.invoke"}));
  EXPECT_EQ(calls[1], (std::vector<std::string>{"rpc.osdb.bind_read", "rpc.objsrv.activate",
                                                 "rpc.objsrv.invoke"}));
  EXPECT_EQ(calls[2], (std::vector<std::string>{"rpc.osdb.bind_read", "rpc.objsrv.invoke"}));
  for (sim::NodeId st : {4u, 5u}) EXPECT_EQ(s.sys.store_at(st).read(a).value().version, 3u);
}

// The server restarts between the action's first contact and an
// activating invocation: that invocation is bound to the incarnation
// the action depends on, so the new one answers BindingBroken before
// anything is applied, and the action aborts with no effects.
TEST(CommitShape, ServerRestartBeforeAnActivatingInvocationAbortsWithNoEffects) {
  Sys s{shape_cfg(false, naming::Scheme::IndependentTopLevel, 50)};
  s.sys.trace().enable();
  const Uid a = s.sys.define_object("a", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  const Uid b = s.sys.define_object("b", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  Result<Buffer> second = Buffer{};
  std::vector<std::string> calls;
  s.run([](Sys& s, core::ClientSession* client, Uid a, Uid b, Result<Buffer>& second,
           std::vector<std::string>& calls) -> sim::Task<> {
    auto txn = client->begin();
    EXPECT_TRUE((co_await txn->invoke(a, "deposit", i64_buf(5), LockMode::Write)).ok());
    s.sys.cluster().node(2).crash();
    s.sys.cluster().node(2).recover();
    const sim::SimTime t0 = s.sys.sim().now();
    second = co_await txn->invoke(b, "deposit", i64_buf(7), LockMode::Write);
    calls = calls_from(s.sys.trace(), client->node(), t0);
    (void)co_await txn->abort();
  }(s, client, a, b, second, calls));
  EXPECT_EQ(second.error(), Err::BindingBroken);
  EXPECT_EQ(calls, (std::vector<std::string>{"rpc.osdb.bind", "rpc.objsrv.invoke"}));
  EXPECT_FALSE(s.sys.host_at(2).is_active(b));
  for (const Uid& obj : {a, b})
    for (sim::NodeId st : {3u, 4u}) EXPECT_EQ(s.sys.store_at(st).read(obj).value().version, 1u);
  EXPECT_TRUE(s.sys.gvdb().servers().clients_in_use().empty());
  EXPECT_EQ(s.sys.gvdb().locks().table_depth(), 0u);
}

// The object's replica group already has another member: the activating
// invocation activates and joins at the bound server, then refuses the
// point-to-point operation, which the client resends through the group.
TEST(CommitShape, ExtraGroupMemberSendsTheFirstInvocationThroughTheGroup) {
  Sys s{shape_cfg(false, naming::Scheme::IndependentTopLevel, 51)};
  s.sys.trace().enable();
  const Uid a = s.sys.define_object("a", "bank", BankAccount{}.snapshot(), {2, 3}, {4, 5},
                                    ReplicationPolicy::Active, 1);
  const Uid b = s.sys.define_object("b", "bank", BankAccount{}.snapshot(), {2, 3}, {4, 5},
                                    ReplicationPolicy::Active, 1);
  auto* client = s.sys.client(1);
  std::vector<std::string> calls;
  Status outcome = Err::Aborted;
  s.run([](Sys& s, core::ClientSession* client, Uid a, Uid b, std::vector<std::string>& calls,
           Status& outcome) -> sim::Task<> {
    const std::vector<sim::NodeId> st{4, 5};
    EXPECT_TRUE((co_await s.sys.host_at(3).activate(b, "bank", st, /*join=*/true)).ok());
    auto txn = client->begin();
    EXPECT_TRUE((co_await txn->invoke(a, "deposit", i64_buf(1), LockMode::Write)).ok());
    const sim::SimTime t0 = s.sys.sim().now();
    EXPECT_TRUE((co_await txn->invoke(b, "balance", Buffer{}, LockMode::Read)).ok());
    calls = calls_from(s.sys.trace(), client->node(), t0);
    outcome = co_await txn->commit();
  }(s, client, a, b, calls, outcome));
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(calls, (std::vector<std::string>{"rpc.osdb.bind", "rpc.objsrv.invoke",
                                              "ginv.invoke"}));
  EXPECT_EQ(s.sys.gc().members(b), (std::vector<sim::NodeId>{3, 2}));
  EXPECT_EQ(s.sys.host_at(2).counters().get("objsrv.invoke_not_sole_member"), 1u);
  EXPECT_EQ(client->counters().get("session.activate_group_call"), 1u);
}

// A refusal names the incarnation too. The action's first invocation of
// b at server 2 goes unbound; b's replica group has another member, so
// server 2 activates and joins, then refuses the point-to-point operation
// with NotSoleMember, and the client resends it through the group. The
// refusal bound b's binding to server 2's incarnation: after server 2
// restarts, staging there answers BindingBroken and the action aborts.
TEST(CommitShape, RefusalBindsTheIncarnationThatStagingIsBoundTo) {
  Sys s{shape_cfg(false, naming::Scheme::IndependentTopLevel, 54)};
  s.sys.trace().enable();
  const Uid b = s.sys.define_object("b", "bank", BankAccount{}.snapshot(), {2, 3}, {4, 5},
                                    ReplicationPolicy::Active, 1);
  auto* client = s.sys.client(1);
  std::uint64_t bound_to = 0;
  std::uint64_t before_restart = 0;
  Status outcome = ok_status();
  s.run([](Sys& s, core::ClientSession* client, Uid b, std::uint64_t& bound_to,
           std::uint64_t& before_restart, Status& outcome) -> sim::Task<> {
    const std::vector<sim::NodeId> st{4, 5};
    EXPECT_TRUE((co_await s.sys.host_at(3).activate(b, "bank", st, /*join=*/true)).ok());
    auto txn = client->begin();
    EXPECT_TRUE((co_await txn->invoke(b, "deposit", i64_buf(3), LockMode::Write)).ok());
    bound_to = txn->bindings().at(b).incarnations.front();
    before_restart = s.sys.cluster().node(2).epoch();
    s.sys.cluster().node(2).crash();
    s.sys.cluster().node(2).recover();
    outcome = co_await txn->commit();
  }(s, client, b, bound_to, before_restart, outcome));
  EXPECT_EQ(client->counters().get("session.activate_group_call"), 1u);
  EXPECT_EQ(bound_to, before_restart);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(client->commit_processor().counters().get("commit.server_unreachable"), 1u);
  std::vector<std::string> staging;
  for (const core::TraceEvent& ev : s.sys.trace().events())
    if (ev.kind == core::TraceKind::Begin && ev.name == "rpc.objsrv.state_for_commit")
      staging.push_back(ev.outcome);
  EXPECT_EQ(staging, (std::vector<std::string>{"BindingBroken"}));
  for (sim::NodeId st : {4u, 5u}) EXPECT_EQ(s.sys.store_at(st).read(b).value().version, 1u);
}

// With St's first store down, an activating invocation spends the call
// timeout on it before it loads from the second: its deadline is the
// probe's plus the data path's, so it answers, the action commits on its
// first attempt, and no live server is Removed.
TEST(CommitShape, ActivatingInvocationOutlastsADeadFirstStore) {
  Sys s{shape_cfg(false, naming::Scheme::IndependentTopLevel, 52)};
  const Uid a = s.sys.define_object("a", "counter", Counter{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::Active, 1);
  const Uid b = s.sys.define_object("b", "counter", Counter{}.snapshot(), {2}, {3, 4},
                                    ReplicationPolicy::Active, 1);
  auto* client = s.sys.client(1);
  Status outcome = Err::Aborted;
  sim::SimTime activating = 0;
  s.run([](Sys& s, core::ClientSession* client, Uid a, Uid b, Status& outcome,
           sim::SimTime& activating) -> sim::Task<> {
    {  // a is active at server 2 before store 3 goes down
      auto warm = client->begin();
      EXPECT_TRUE((co_await warm->invoke(a, "add", i64_buf(1), LockMode::Write)).ok());
      EXPECT_TRUE((co_await warm->commit()).ok());
    }
    s.sys.cluster().node(3).crash();
    auto txn = client->begin();
    EXPECT_TRUE((co_await txn->invoke(a, "add", i64_buf(1), LockMode::Write)).ok());
    const sim::SimTime t0 = s.sys.sim().now();
    EXPECT_TRUE((co_await txn->invoke(b, "add", i64_buf(1), LockMode::Write)).ok());
    activating = s.sys.sim().now() - t0;
    outcome = co_await txn->commit();
  }(s, client, a, b, outcome, activating));
  EXPECT_TRUE(outcome.ok());
  EXPECT_GT(activating, s.sys.config().rpc.call_timeout);
  EXPECT_EQ(s.sys.host_at(2).counters().get("objsrv.activate_store_miss"), 1u);
  EXPECT_EQ(client->counters().get("session.txn_aborted"), 0u);
  EXPECT_EQ(s.sys.gvdb().counters().get("osdb.remove"), 0u);
  EXPECT_EQ(s.sys.gvdb().servers().entries.at(b).sv, (std::vector<sim::NodeId>{2}));
  EXPECT_EQ(s.sys.store_at(4).read(b).value().version, 2u);
}

}  // namespace
}  // namespace gv::replication
