// Property-based tests: randomised sweeps over seeds and schedules
// checking the library's global invariants rather than example-based
// expectations.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "actions/lock_manager.h"
#include "core/nemesis.h"
#include "core/system.h"
#include "rpc/group_comm.h"
#include "util/buffer.h"
#include "util/rng.h"

namespace gv {
namespace {

// ---------------------------------------------------------------- Buffer

// Fuzz: random pack sequences decode to exactly what was packed.
class BufferFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BufferFuzz, RandomRoundTrip) {
  Rng rng{GetParam()};
  Buffer b;
  struct Item {
    int kind;
    std::uint64_t u;
    std::string s;
  };
  std::vector<Item> script;
  const int n = 3 + static_cast<int>(rng.uniform(40));
  for (int i = 0; i < n; ++i) {
    Item it;
    it.kind = static_cast<int>(rng.uniform(4));
    switch (it.kind) {
      case 0:
        it.u = rng.next_u64();
        b.pack_u64(it.u);
        break;
      case 1:
        it.u = rng.next_u64() & 0xFFFFFFFF;
        b.pack_u32(static_cast<std::uint32_t>(it.u));
        break;
      case 2: {
        const std::size_t len = rng.uniform(64);
        it.s.reserve(len);
        for (std::size_t j = 0; j < len; ++j)
          it.s.push_back(static_cast<char>('a' + rng.uniform(26)));
        b.pack_string(it.s);
        break;
      }
      case 3:
        it.u = rng.next_u64() & 1;
        b.pack_bool(it.u != 0);
        break;
    }
    script.push_back(std::move(it));
  }
  for (const Item& it : script) {
    switch (it.kind) {
      case 0: EXPECT_EQ(b.unpack_u64().value(), it.u); break;
      case 1: EXPECT_EQ(b.unpack_u32().value(), static_cast<std::uint32_t>(it.u)); break;
      case 2: EXPECT_EQ(b.unpack_string().value(), it.s); break;
      case 3: EXPECT_EQ(b.unpack_bool().value(), it.u != 0); break;
    }
  }
  EXPECT_EQ(b.remaining(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// Fuzz: truncating a valid buffer anywhere never crashes the decoder and
// yields BadRequest (never garbage) once the cut is hit.
TEST(BufferFuzz, TruncationIsAlwaysDetectedOrClean) {
  Buffer full;
  full.pack_u64(1).pack_string("hello world").pack_uid(Uid{3, 4}).pack_u32(9);
  const auto& bytes = full.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Buffer partial{std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + cut)};
    auto a = partial.unpack_u64();
    if (!a.ok()) continue;
    EXPECT_EQ(a.value(), 1u);
    auto s = partial.unpack_string();
    if (!s.ok()) continue;
    EXPECT_EQ(s.value(), "hello world");
    auto u = partial.unpack_uid();
    if (!u.ok()) continue;
    EXPECT_EQ(u.value(), (Uid{3, 4}));
    auto x = partial.unpack_u32();
    if (!x.ok()) continue;
    EXPECT_EQ(x.value(), 9u);
  }
}

// ----------------------------------------------------------- LockManager

// Property: under any random schedule of acquire/release from K actions,
// the set of granted locks never violates the compatibility matrix.
class LockSchedule : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LockSchedule, GrantsNeverViolateCompatibility) {
  sim::Simulator sim{GetParam()};
  actions::LockManager lm{sim};
  Rng rng{GetParam() * 31 + 7};

  struct Granted {
    Uid owner;
    actions::LockMode mode;
  };
  std::vector<Granted> granted;
  bool violation = false;

  auto check = [&granted, &violation] {
    for (std::size_t i = 0; i < granted.size(); ++i)
      for (std::size_t j = i + 1; j < granted.size(); ++j)
        if (granted[i].owner != granted[j].owner &&
            !compatible(granted[i].mode, granted[j].mode) &&
            !compatible(granted[j].mode, granted[i].mode))
          violation = true;
  };

  const int kActors = 6;
  for (int a = 0; a < kActors; ++a) {
    sim.spawn([](sim::Simulator& sim, actions::LockManager& lm, Rng seed_rng, int actor,
                 std::vector<Granted>& granted, bool& violation,
                 decltype(check)& check) -> sim::Task<> {
      Rng rng{seed_rng.next_u64() + static_cast<std::uint64_t>(actor)};
      const Uid me{9, static_cast<std::uint64_t>(actor + 1)};
      for (int round = 0; round < 15; ++round) {
        co_await sim.sleep(rng.uniform(5 * sim::kMillisecond));
        const auto mode = static_cast<actions::LockMode>(rng.uniform(3));
        Status s =
            co_await lm.acquire(actions::LockKey{Uid{50, 1}}, mode, me, 20 * sim::kMillisecond);
        if (s.ok()) {
          granted.push_back({me, mode});
          check();
          co_await sim.sleep(rng.uniform(3 * sim::kMillisecond));
          granted.erase(std::find_if(granted.begin(), granted.end(),
                                     [&](const Granted& g) { return g.owner == me; }));
          lm.release_all(me);
        }
      }
    }(sim, lm, rng.fork(), a, granted, violation, check));
  }
  sim.run();
  EXPECT_FALSE(violation);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockSchedule, ::testing::Values(3, 17, 59, 111, 222, 333));

// ------------------------------------------------------------- GroupComm

// Property: ordered delivery produces an identical prefix-closed log at
// every member across random loss, jitter, and member crash schedules.
class GroupOrder : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupOrder, TotalOrderIsPrefixConsistent) {
  sim::Simulator sim{GetParam()};
  sim::Cluster cluster{sim};
  cluster.add_nodes(6);
  sim::Network net{sim, cluster};
  net.config().jitter_mean_us = 2000;  // aggressive reordering pressure
  rpc::GroupComm gc{sim, cluster, net};

  const std::vector<sim::NodeId> members{1, 2, 3, 4};
  const Uid group{0, 1};
  gc.create_group(group, members);
  std::vector<std::vector<std::uint32_t>> logs(6);
  for (auto m : members)
    gc.join(group, m, [&logs, m](sim::NodeId, std::uint64_t, Buffer msg) {
      logs[m].push_back(msg.unpack_u32().value());
    });

  Rng rng{GetParam() * 7 + 5};
  for (std::uint32_t i = 0; i < 60; ++i) {
    Buffer b;
    b.pack_u32(i);
    gc.multicast(static_cast<sim::NodeId>(rng.uniform(6)), group, std::move(b),
                 rpc::McastMode::ReliableOrdered);
    // Random member crash mid-stream (~10%): it must be dropped from the
    // view, and the SURVIVORS' logs must stay consistent.
    if (rng.bernoulli(0.05)) {
      auto victim = members[rng.uniform(members.size())];
      cluster.node(victim).crash();
    }
  }
  sim.run();

  // Every pair of logs: one is a prefix of the other (a crashed member
  // stops early but never diverges).
  for (auto a : members) {
    for (auto b : members) {
      const auto& la = logs[a];
      const auto& lb = logs[b];
      const std::size_t n = std::min(la.size(), lb.size());
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(la[i], lb[i]) << "logs diverge at " << i << " (members " << a << "," << b
                                << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupOrder, ::testing::Values(2, 19, 71, 101, 149, 211));

// --------------------------------------------------------- System-level

// Property: under random crash schedules on stores AND servers, the bank
// never loses or mints money: the committed balance always equals the
// sum of committed deposits minus committed withdrawals.
class MoneyConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MoneyConservation, BalanceMatchesCommittedOps) {
  core::SystemConfig cfg;
  cfg.nodes = 10;
  cfg.seed = GetParam();
  core::ReplicaSystem sys{cfg};
  const Uid acct = sys.define_object("acct", "bank", replication::BankAccount{}.snapshot(),
                                     {2, 3}, {5, 6, 7}, core::ReplicationPolicy::Active, 2);
  core::CrashNemesis chaos{sys.sim(), sys.cluster(),
                           core::CrashNemesisConfig{.mean_uptime = 900 * sim::kMillisecond,
                                                    .mean_downtime = 400 * sim::kMillisecond,
                                                    .victims = {2, 3, 5, 6, 7}}};
  chaos.start();

  auto* client = sys.client(1);
  std::int64_t committed_delta = 0;
  sys.sim().spawn([](core::ClientSession* client, Uid acct,
                     std::int64_t& committed_delta) -> sim::Task<> {
    Rng rng{client->runtime().endpoint().node_id() * 97 + 3};
    for (int i = 0; i < 30; ++i) {
      const bool deposit = rng.bernoulli(0.7);
      const std::int64_t amount = 1 + static_cast<std::int64_t>(rng.uniform(50));
      auto txn = client->begin();
      Buffer arg;
      arg.pack_i64(amount);
      auto r = co_await txn->invoke(acct, deposit ? "deposit" : "withdraw", std::move(arg),
                                    core::LockMode::Write);
      if (!r.ok()) {
        (void)co_await txn->abort();
      } else if ((co_await txn->commit()).ok()) {
        committed_delta += deposit ? amount : -amount;
      }
      co_await client->runtime().endpoint().node().sim().sleep(25 * sim::kMillisecond);
    }
  }(client, acct, committed_delta));
  sys.sim().run_until(90 * sim::kSecond);
  chaos.stop();
  for (sim::NodeId n : {2u, 3u, 5u, 6u, 7u})
    if (!sys.cluster().up(n)) sys.cluster().node(n).recover();
  sys.sim().run();

  const auto st = sys.gvdb().states().peek(acct);
  ASSERT_FALSE(st.empty());
  replication::BankAccount check;
  bool read_any = false;
  for (auto node : st) {
    auto r = sys.store_at(node).read(acct);
    if (!r.ok()) continue;
    (void)check.restore(std::move(r.value().state));
    read_any = true;
    break;
  }
  ASSERT_TRUE(read_any);
  EXPECT_EQ(check.balance(), committed_delta);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoneyConservation, ::testing::Values(7, 13, 42, 65, 99));

}  // namespace
}  // namespace gv
