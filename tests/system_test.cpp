// End-to-end integration tests over the public ReplicaSystem API:
// multi-object transactions, nested transactions, concurrent clients,
// the three binding schemes, and long chaos runs checking the system's
// global invariants.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/nemesis.h"
#include "core/system.h"

namespace gv::core {
namespace {

using replication::BankAccount;
using replication::Counter;

Buffer i64_buf(std::int64_t v) {
  Buffer b;
  b.pack_i64(v);
  return b;
}

struct Sys {
  ReplicaSystem sys;
  explicit Sys(SystemConfig cfg = {}) : sys(cfg) {}
  template <typename F>
  void run(F&& body) {
    sys.sim().spawn(std::forward<F>(body));
    sys.sim().run();
  }
};

TEST(System, NameResolution) {
  Sys s;
  Uid obj = s.sys.define_object("acct-A", "bank", BankAccount{}.snapshot(), {2}, {2},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto r = s.sys.resolve("acct-A");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), obj);
  EXPECT_EQ(s.sys.resolve("nope").error(), Err::NotFound);
  auto spec = s.sys.spec_of(obj);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().class_name, "bank");
}

// A transfer between two replicated accounts: both must change together.
TEST(System, MultiObjectTransactionIsAtomic) {
  Sys s{SystemConfig{.nodes = 10}};
  Uid a = s.sys.define_object("a", "bank", BankAccount{}.snapshot(), {2}, {3, 4},
                              ReplicationPolicy::SingleCopyPassive, 1);
  Uid b = s.sys.define_object("b", "bank", BankAccount{}.snapshot(), {5}, {6, 7},
                              ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  s.run([](ClientSession* client, Uid a, Uid b) -> sim::Task<> {
    {
      auto txn = client->begin();
      (void)co_await txn->invoke(a, "deposit", i64_buf(100), LockMode::Write);
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
    {
      auto txn = client->begin();
      auto w = co_await txn->invoke(a, "withdraw", i64_buf(40), LockMode::Write);
      EXPECT_TRUE(w.ok());
      auto d = co_await txn->invoke(b, "deposit", i64_buf(40), LockMode::Write);
      EXPECT_TRUE(d.ok());
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
  }(client, a, b));

  auto read_balance = [&](Uid obj, sim::NodeId st) {
    BankAccount acct;
    auto r = s.sys.store_at(st).read(obj);
    EXPECT_TRUE(r.ok());
    if (r.ok()) (void)acct.restore(std::move(r.value().state));
    return acct.balance();
  };
  EXPECT_EQ(read_balance(a, 3), 60);
  EXPECT_EQ(read_balance(b, 6), 40);
}

// An aborted transfer leaves both untouched even though one invocation
// succeeded before the failure.
TEST(System, FailedTransferLeavesNoPartialState) {
  Sys s{SystemConfig{.nodes = 10}};
  Uid a = s.sys.define_object("a", "bank", BankAccount{}.snapshot(), {2}, {3},
                              ReplicationPolicy::SingleCopyPassive, 1);
  Uid b = s.sys.define_object("b", "bank", BankAccount{}.snapshot(), {5}, {6},
                              ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  s.run([](ClientSession* client, Uid a, Uid b) -> sim::Task<> {
    {
      auto txn = client->begin();
      (void)co_await txn->invoke(a, "deposit", i64_buf(10), LockMode::Write);
      EXPECT_TRUE((co_await txn->commit()).ok());
    }
    {
      auto txn = client->begin();
      (void)co_await txn->invoke(a, "withdraw", i64_buf(10), LockMode::Write);
      // Insufficient funds on b's side? No — simulate app-level failure:
      auto w = co_await txn->invoke(b, "withdraw", i64_buf(999), LockMode::Write);
      EXPECT_EQ(w.error(), Err::Conflict);
      (void)co_await txn->abort();
    }
  }(client, a, b));
  BankAccount acct;
  (void)acct.restore(std::move(s.sys.store_at(3).read(a).value().state));
  EXPECT_EQ(acct.balance(), 10);  // the withdraw rolled back
  EXPECT_EQ(s.sys.store_at(6).read(b).value().version, 1u);
}

// Nested transactions: abort of the nested part leaves the parent's work.
TEST(System, NestedTransactionSelectiveAbort) {
  Sys s{SystemConfig{.nodes = 10}};
  Uid a = s.sys.define_object("a", "counter", Counter{}.snapshot(), {2}, {3},
                              ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  s.run([](ClientSession* client, Uid a) -> sim::Task<> {
    auto txn = client->begin();
    EXPECT_TRUE((co_await txn->invoke(a, "add", i64_buf(5), LockMode::Write)).ok());
    {
      auto nested = txn->nest();
      EXPECT_TRUE((co_await nested->invoke(a, "add", i64_buf(100), LockMode::Write)).ok());
      (void)co_await nested->abort();  // undo only the +100
    }
    auto r = co_await txn->invoke(a, "read", Buffer{}, LockMode::Read);
    EXPECT_TRUE(r.ok());
    if (r.ok()) EXPECT_EQ(r.value().unpack_i64().value(), 5);
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(client, a));
  Counter c;
  (void)c.restore(std::move(s.sys.store_at(3).read(a).value().state));
  EXPECT_EQ(c.value(), 5);
}

TEST(System, NestedTransactionCommitInherits) {
  Sys s{SystemConfig{.nodes = 10}};
  Uid a = s.sys.define_object("a", "counter", Counter{}.snapshot(), {2}, {3},
                              ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  s.run([](ClientSession* client, Uid a) -> sim::Task<> {
    auto txn = client->begin();
    {
      auto nested = txn->nest();
      EXPECT_TRUE((co_await nested->invoke(a, "add", i64_buf(3), LockMode::Write)).ok());
      EXPECT_TRUE((co_await nested->commit()).ok());
    }
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(client, a));
  Counter c;
  (void)c.restore(std::move(s.sys.store_at(3).read(a).value().state));
  EXPECT_EQ(c.value(), 3);
}

// Two concurrent writers on the same object: write locks serialise them;
// the final value reflects both increments exactly once.
TEST(System, ConcurrentWritersSerialise) {
  Sys s{SystemConfig{.nodes = 10}};
  Uid a = s.sys.define_object("a", "counter", Counter{}.snapshot(), {2}, {3},
                              ReplicationPolicy::SingleCopyPassive, 1);
  int committed = 0, aborted = 0;
  for (sim::NodeId cn : {1u, 6u}) {
    auto* client = s.sys.client(cn);
    s.sys.sim().spawn([](ClientSession* client, Uid a, int& committed,
                         int& aborted) -> sim::Task<> {
      for (int i = 0; i < 3; ++i) {
        auto txn = client->begin();
        auto r = co_await txn->invoke(a, "add", i64_buf(1), LockMode::Write);
        if (!r.ok()) {
          (void)co_await txn->abort();
          ++aborted;
          continue;
        }
        if ((co_await txn->commit()).ok())
          ++committed;
        else
          ++aborted;
      }
    }(client, a, committed, aborted));
  }
  s.sys.sim().run();
  Counter c;
  (void)c.restore(std::move(s.sys.store_at(3).read(a).value().state));
  EXPECT_EQ(c.value(), committed);  // exactly the committed increments
  EXPECT_EQ(committed + aborted, 6);
}

// The three schemes all execute the same workload correctly.
class SchemeSweep : public ::testing::TestWithParam<naming::Scheme> {};

TEST_P(SchemeSweep, WorkloadCorrectUnderScheme) {
  SystemConfig cfg;
  cfg.nodes = 10;
  cfg.scheme = GetParam();
  Sys s{cfg};
  Uid a = s.sys.define_object("a", "counter", Counter{}.snapshot(), {2, 3}, {4, 5},
                              ReplicationPolicy::Active, 2);
  auto* client = s.sys.client(1);
  int commits = 0;
  s.run([](ClientSession* client, Uid a, int& commits) -> sim::Task<> {
    for (int i = 0; i < 4; ++i) {
      auto txn = client->begin();
      auto r = co_await txn->invoke(a, "add", i64_buf(1), LockMode::Write);
      EXPECT_TRUE(r.ok());
      if ((co_await txn->commit()).ok()) ++commits;
    }
  }(client, a, commits));
  EXPECT_EQ(commits, 4);
  Counter c;
  (void)c.restore(std::move(s.sys.store_at(4).read(a).value().state));
  EXPECT_EQ(c.value(), 4);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeSweep,
                         ::testing::Values(naming::Scheme::StandardNested,
                                           naming::Scheme::IndependentTopLevel,
                                           naming::Scheme::NestedTopLevel));

// Chaos invariant run: crash/recover store nodes at random under a write
// workload. Invariants:
//  (I1) every node in St(A) at the end that is up and not suspect holds
//       the same latest committed version;
//  (I2) the committed counter value equals the number of committed
//       increments (no lost or duplicated effects).
class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, InvariantsHoldUnderCrashes) {
  SystemConfig cfg;
  cfg.nodes = 9;
  cfg.seed = GetParam();
  Sys s{cfg};
  Uid a = s.sys.define_object("a", "counter", Counter{}.snapshot(), {1}, {4, 5, 6},
                              ReplicationPolicy::SingleCopyPassive, 1);
  CrashNemesis chaos{s.sys.sim(), s.sys.cluster(),
                     CrashNemesisConfig{.mean_uptime = 800 * sim::kMillisecond,
                                        .mean_downtime = 300 * sim::kMillisecond,
                                        .victims = {4, 5, 6}}};
  chaos.start();

  auto* client = s.sys.client(2);
  int committed = 0;
  s.sys.sim().spawn([](ClientSession* client, Uid a, int& committed) -> sim::Task<> {
    for (int i = 0; i < 40; ++i) {
      auto txn = client->begin();
      auto r = co_await txn->invoke(a, "add", i64_buf(1), LockMode::Write);
      if (!r.ok()) {
        (void)co_await txn->abort();
        continue;
      }
      if ((co_await txn->commit()).ok()) ++committed;
      co_await client->runtime().endpoint().node().sim().sleep(20 * sim::kMillisecond);
    }
  }(client, a, committed));
  s.sys.sim().run_until(60 * sim::kSecond);
  chaos.stop();
  // Let in-flight repair finish.
  for (sim::NodeId n : {4u, 5u, 6u})
    if (!s.sys.cluster().up(n)) s.sys.cluster().node(n).recover();
  s.sys.sim().run();

  ASSERT_GT(committed, 0);

  // I1: all current St members agree on version + content.
  const auto st = s.sys.gvdb().states().peek(a);
  ASSERT_FALSE(st.empty());
  std::uint64_t version = 0;
  std::uint64_t checksum = 0;
  bool first = true;
  for (auto node : st) {
    if (s.sys.store_at(node).suspect(a)) continue;
    auto r = s.sys.store_at(node).read(a);
    ASSERT_TRUE(r.ok()) << "St member " << node << " cannot serve the state";
    if (first) {
      version = r.value().version;
      checksum = r.value().state.checksum();
      first = false;
    } else {
      EXPECT_EQ(r.value().version, version) << "St member " << node << " stale";
      EXPECT_EQ(r.value().state.checksum(), checksum);
    }
  }
  EXPECT_FALSE(first);

  // I2: committed value == number of committed increments.
  Counter c;
  auto latest = s.sys.store_at(st[0]).read(a);
  ASSERT_TRUE(latest.ok());
  (void)c.restore(std::move(latest.value().state));
  EXPECT_EQ(c.value(), committed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep, ::testing::Values(11, 23, 37, 51, 73));

// Determinism: identical seeds produce identical simulations.
TEST(System, DeterministicEndToEnd) {
  auto run_once = [](std::uint64_t seed) {
    SystemConfig cfg;
    cfg.nodes = 8;
    cfg.seed = seed;
    Sys s{cfg};
    Uid a = s.sys.define_object("a", "counter", Counter{}.snapshot(), {2, 3}, {4, 5},
                                ReplicationPolicy::Active, 2);
    auto* client = s.sys.client(1);
    int commits = 0;
    s.run([](ClientSession* client, Uid a, int& commits) -> sim::Task<> {
      for (int i = 0; i < 5; ++i) {
        auto txn = client->begin();
        (void)co_await txn->invoke(a, "add", i64_buf(1), LockMode::Write);
        if ((co_await txn->commit()).ok()) ++commits;
      }
    }(client, a, commits));
    return std::make_pair(s.sys.sim().now(), commits);
  };
  EXPECT_EQ(run_once(77), run_once(77));
  EXPECT_NE(run_once(77).first, run_once(78).first);
}

}  // namespace
}  // namespace gv::core
